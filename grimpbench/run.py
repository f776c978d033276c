#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 grimpbench/run.py --workload impute_adult --seed 1 --seconds 15 --trace 0

The benchmark executable is built from ../src and this directory with CMake
into $CARGO_TARGET_DIR (default .bench_build) under the checkout, in an
optimised (Release) configuration. Each workload runs in its own process.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["impute_adult", "train_sharded"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the executable; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("grimpbench: no library sources at", os.path.join(ROOT, "src"))
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "--target", "grimpbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(2)
    return os.path.join(out, "grimpbench")


def run_workload(binary, workload, args):
    """Runs one workload in its own process; returns its result object."""
    work_dir = os.path.join(build_dir(), "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("grimpbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        sys.exit(1)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    trace = os.path.join(work_dir, "trace.json")
    if os.path.isfile(trace):
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        kept = os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))
        shutil.move(trace, kept)
        log("trace:", kept)
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0 or not lines:
        log("grimpbench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    print(json.dumps(run_workload(binary, args.workload, args)))


if __name__ == "__main__":
    main()
