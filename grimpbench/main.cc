// grimpbench: the repository benchmark's executable. Runs one workload
// and prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics, or the
// per-layer metrics with --trace 1). Normally started by run.py, which
// builds it first:
//
//   grimpbench --workload impute_adult|train_sharded
//              --seed N --seconds S --trace 0|1 --work-dir DIR

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "tensor/simd.h"
#include "workloads.h"

namespace grimpbench {

void SetEndToEnd(double setup_s, double peak_rss_mb,
                 const std::vector<double>& epoch_ms, Outcome* out) {
  // The median of the medians of contiguous segments of the epochs, in run
  // order: a disturbance of a shared host that covers less than half of
  // the run does not move it.
  std::vector<double> segment_medians;
  const size_t n = epoch_ms.size();
  for (size_t s = 0; s < kOpSegments; ++s) {
    const std::vector<double> segment(
        epoch_ms.begin() + n * s / kOpSegments,
        epoch_ms.begin() + n * (s + 1) / kOpSegments);
    if (!segment.empty()) segment_medians.push_back(Median(segment));
  }
  if (n < kMinOps) {
    out->Fail("too few epochs (" + std::to_string(n) + ")");
  }
  std::printf("  epoch over %zu samples: p50 %.4f ms, p90 %.4f ms, segment "
              "medians", n, Median(epoch_ms), Quantile(epoch_ms, 0.9));
  for (double m : segment_medians) std::printf(" %.4f", m);
  std::printf("\n");
  out->Set("setup_s", setup_s, "s");
  out->Set("peak_rss_mb", peak_rss_mb, "MB");
  out->Set("epoch_s", Median(segment_medians) / 1e3, "s");
}

namespace {

#ifdef GRIMPBENCH_BUILD_TYPE
constexpr const char* kBuildType = GRIMPBENCH_BUILD_TYPE;
#else
constexpr const char* kBuildType = "unknown";
#endif

bool OptimisedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string EnvJson(const Args& args) {
  const char* threads_env = std::getenv("GRIMP_NUM_THREADS");
  const double simd = grimp::MetricsRegistry::Global()
                          .GetGauge("tensor.simd.level")
                          .value();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %d, \"hardware_concurrency\": %u, "
      "\"GRIMP_NUM_THREADS\": \"%s\", \"pool_threads\": %d, "
      "\"simd_level\": \"%s\", \"simd_level_gauge\": %.0f, "
      "\"build_type\": \"%s\"}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      threads_env != nullptr ? threads_env : "",
      grimp::ThreadPool::GlobalThreads(),
      grimp::SimdLevelName(grimp::ActiveSimdLevel()), simd, kBuildType);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: grimpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

}  // namespace grimpbench

int main(int argc, char** argv) {
  using namespace grimpbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    return Usage();
  }
  if (!OptimisedBuild()) {
    std::fprintf(stderr, "grimpbench: refusing to run a non-optimised build "
                         "(build type %s)\n", kBuildType);
    return 3;
  }
  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "impute_adult") run = RunImputeAdult;
  if (args.workload == "train_sharded") run = RunTrainSharded;
  if (run == nullptr) {
    std::fprintf(stderr, "grimpbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (args.trace) Tracer::Get().Enable();
  grimp::ActiveSimdLevel();  // resolve (and publish) the SIMD tier up front

  const Outcome out = run(args);

  const std::string env = EnvJson(args);
  std::printf("env %s\n", env.c_str());
  for (const auto& [name, value] : out.metrics) {
    std::printf("  %-32s %14.6f %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  if (args.trace) {
    const std::string path = args.work_dir + "/trace.json";
    if (Tracer::Get().Write(path, env)) {
      std::printf("trace: %zu spans written to %s\n", Tracer::Get().size(),
                  path.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, value] = out.metrics[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", name.c_str(), value.first,
                  value.second.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
