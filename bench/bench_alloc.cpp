// Allocation benchmark for the arena-backed tensor substrate: trains the
// same model on the same corrupted table twice per mode — once with the
// TensorArena bypassed (GRIMP_ARENA=0 semantics via SetEnabled) and once
// with it on — and measures steady-state per-step wall time plus per-step
// heap allocations (a counting operator new in this binary). The arena is
// pure memory recycling, so the two runs must produce bit-identical
// per-epoch losses and imputed tables; any divergence fails the run.
//
// A third workload covers serving: a GrimpEngine is fitted once, then the
// same single-row requests run through TransformMany — the exact
// call the request scheduler makes per batch — arena-off and arena-on,
// measuring per-request wall time and allocations. Request copies and
// result collection happen outside the timed window, so the measurement is
// the serve hot path alone, as a long-lived server sees it.
//
// At the default 20000 rows the run fails (exit 1) unless the sampled
// config shows either a >= 1.25x steady-state step speedup or a >= 95%
// reduction in per-step heap allocations, and unless the serve workload
// shows a >= 90% reduction in per-request heap allocations; at smoke sizes
// (--rows below 10000) the gates are off. Results go to BENCH_alloc.json
// (cwd).
//
//   bench_alloc [--rows=N] [--epochs=N] [--seed=N] [--samples=N]
//               [--batch=N] [--fanout=N]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/grimp.h"
#include "core/names.h"
#include "data/datasets.h"
#include "table/corruption.h"
#include "tensor/arena.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter. ASan interposes operator new itself, so under a
// sanitized build the hooks are compiled out and the bench reports timing
// only (alloc_counting=false in the JSON).
#if defined(__SANITIZE_ADDRESS__)
#define BENCH_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BENCH_ALLOC_COUNTING 0
#else
#define BENCH_ALLOC_COUNTING 1
#endif
#else
#define BENCH_ALLOC_COUNTING 1
#endif

namespace {
std::atomic<long long> g_heap_allocs{0};
}  // namespace

#if BENCH_ALLOC_COUNTING
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // BENCH_ALLOC_COUNTING

namespace {

using grimp::CorruptedTable;
using grimp::GrimpEngine;
using grimp::GrimpImputer;
using grimp::GrimpOptions;
using grimp::Status;
using grimp::Table;
using grimp::TensorArena;
using grimp::TrainMode;
using grimp::TrainModeName;

struct RunStats {
  std::string mode;
  bool arena = false;
  int epochs = 0;
  long long steps = 0;
  double mean_epoch_seconds = 0.0;
  double steady_step_seconds = 0.0;
  double steady_allocs_per_step = 0.0;
  std::vector<double> losses;
  Table imputed;
};

RunStats RunOnce(const CorruptedTable& corrupted, GrimpOptions options,
                 bool arena_on) {
  TensorArena::Global().SetEnabled(arena_on);
  std::vector<double> epoch_seconds;
  std::vector<long long> allocs_at_epoch_end;
  RunStats stats;
  options.callbacks.on_epoch_end = [&](const grimp::EpochStats& s) {
    epoch_seconds.push_back(s.seconds);
    allocs_at_epoch_end.push_back(
        g_heap_allocs.load(std::memory_order_relaxed));
    stats.losses.push_back(s.train_loss);
    return true;
  };
  GrimpImputer imputer(options);
  auto imputed = imputer.Impute(corrupted.dirty);
  if (!imputed.ok()) {
    std::fprintf(stderr, "bench_alloc: %s run failed: %s\n",
                 std::string(TrainModeName(options.train.mode)).c_str(),
                 imputed.status().ToString().c_str());
    std::exit(1);
  }
  stats.mode = std::string(TrainModeName(options.train.mode));
  stats.arena = arena_on;
  stats.epochs = static_cast<int>(epoch_seconds.size());
  stats.steps = imputer.summary().steps_run;
  stats.imputed = std::move(*imputed);

  // Epoch 1 absorbs warmup (pool growth, mask scratch, tape sizing); the
  // steady-state window is every epoch after it. Steps per epoch are
  // constant with validation off.
  const size_t skip = epoch_seconds.size() > 1 ? 1 : 0;
  const double sum = std::accumulate(epoch_seconds.begin() + skip,
                                     epoch_seconds.end(), 0.0);
  stats.mean_epoch_seconds =
      sum / static_cast<double>(epoch_seconds.size() - skip);
  const double steps_per_epoch =
      static_cast<double>(stats.steps) / static_cast<double>(stats.epochs);
  stats.steady_step_seconds = stats.mean_epoch_seconds / steps_per_epoch;
  if (allocs_at_epoch_end.size() > 1) {
    const long long steady_allocs =
        allocs_at_epoch_end.back() - allocs_at_epoch_end.front();
    stats.steady_allocs_per_step =
        static_cast<double>(steady_allocs) /
        (steps_per_epoch * static_cast<double>(allocs_at_epoch_end.size() - 1));
  }
  return stats;
}

// Serving workload: per-request TransformMany over a fitted
// engine — the call the request scheduler makes, on the table parsed from
// the wire, with no result copy. One warmup pass grows the arena pool, the
// engine's caches, and the per-thread transform scratch; the measured pass
// is the steady state a long-lived server sits in. The in-place call
// consumes its request table (missing cells get filled), so fresh copies
// are made outside the timed window, and the imputed rows are collected
// into one table afterwards so Identical() covers every request.
RunStats RunServe(GrimpEngine* engine, const std::vector<Table>& requests,
                  bool arena_on) {
  TensorArena::Global().SetEnabled(arena_on);
  RunStats stats;
  stats.mode = "serve";
  stats.arena = arena_on;
  stats.steps = static_cast<long long>(requests.size());
  stats.imputed = Table(requests.front().schema());
  for (const Table& request : requests) {  // warmup
    Table work = request;
    Table* one[] = {&work};
    if (Status s = engine->TransformMany(one); !s.ok()) {
      std::fprintf(stderr, "bench_alloc: serve warmup failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
  }
  std::vector<Table> work(requests.begin(), requests.end());
  const long long allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (Table& request : work) {
    Table* one[] = {&request};
    if (Status s = engine->TransformMany(one); !s.ok()) {
      std::fprintf(stderr, "bench_alloc: serve request failed: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const long long allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  for (const Table& result : work) {
    for (int64_t r = 0; r < result.num_rows(); ++r) {
      std::vector<std::string> cells;
      cells.reserve(static_cast<size_t>(result.num_cols()));
      for (int c = 0; c < result.num_cols(); ++c) {
        cells.push_back(result.column(c).StringAt(r));
      }
      if (!stats.imputed.AppendRow(cells).ok()) std::exit(1);
    }
  }
  stats.mean_epoch_seconds = seconds;
  stats.steady_step_seconds = seconds / static_cast<double>(requests.size());
  stats.steady_allocs_per_step =
      static_cast<double>(allocs) / static_cast<double>(requests.size());
  return stats;
}

// Bit-identity: the arena recycles buffers but never changes what kernels
// compute, so losses and imputed cells must match exactly.
bool Identical(const RunStats& a, const RunStats& b) {
  if (a.losses != b.losses) return false;
  if (a.imputed.num_rows() != b.imputed.num_rows() ||
      a.imputed.num_cols() != b.imputed.num_cols()) {
    return false;
  }
  for (int c = 0; c < a.imputed.num_cols(); ++c) {
    for (int64_t r = 0; r < a.imputed.num_rows(); ++r) {
      if (a.imputed.column(c).StringAt(r) != b.imputed.column(c).StringAt(r)) {
        return false;
      }
    }
  }
  return true;
}

std::string ToJson(const RunStats& r) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "    {\"mode\": \"%s\", \"arena\": %s, \"epochs\": %d, "
                "\"steps\": %lld, \"mean_epoch_seconds\": %.6f, "
                "\"steady_step_seconds\": %.8f, "
                "\"steady_allocs_per_step\": %.2f}",
                r.mode.c_str(), r.arena ? "true" : "false", r.epochs, r.steps,
                r.mean_epoch_seconds, r.steady_step_seconds,
                r.steady_allocs_per_step);
  return buf;
}

double Reduction(double off, double on) {
  return off > 0.0 ? 1.0 - on / off : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 20000;
  int epochs = 6;
  uint64_t seed = 21;
  int64_t samples = 64;
  int batch = 64;
  int fanout = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = std::atoll(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--samples=", 10) == 0) {
      samples = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--fanout=", 9) == 0) {
      fanout = std::atoi(argv[i] + 9);
    } else {
      std::fprintf(stderr, "usage: bench_alloc [--rows=N] [--epochs=N] "
                           "[--seed=N] [--samples=N] [--batch=N] "
                           "[--fanout=N]\n");
      return 2;
    }
  }

  auto clean_or = grimp::GenerateDatasetByName("adult", /*seed=*/7, rows);
  if (!clean_or.ok()) {
    std::fprintf(stderr, "bench_alloc: %s\n",
                 clean_or.status().ToString().c_str());
    return 1;
  }
  const Table& clean = *clean_or;
  const CorruptedTable corrupted = grimp::InjectMcar(clean, 0.2, 13);

  GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.max_epochs = epochs;
  options.seed = seed;
  options.max_samples_per_task = samples;
  options.validation_fraction = 0.0;  // fixed epoch count, fixed steps/epoch

  GrimpOptions full = options;
  full.train.mode = TrainMode::kFull;
  GrimpOptions sampled = options;
  sampled.train.mode = TrainMode::kSampled;
  sampled.train.batch_size = batch;
  sampled.train.fanouts = {fanout, fanout};

  std::printf("allocation benchmark: adult-replica, %lld rows, %d epochs, "
              "%lld samples/task, up to %d threads, alloc counting %s\n\n",
              static_cast<long long>(clean.num_rows()), epochs,
              static_cast<long long>(samples),
              grimp::bench::ResolveMaxThreads(),
              BENCH_ALLOC_COUNTING ? "on" : "off (sanitized build)");

  // Arena-off first so the off runs cannot benefit from buffers the on runs
  // pooled. SetEnabled(false) flushes the free lists.
  std::vector<RunStats> runs;
  for (const bool arena_on : {false, true}) {
    runs.push_back(RunOnce(corrupted, full, arena_on));
    runs.push_back(RunOnce(corrupted, sampled, arena_on));
  }

  // Serving workload: fit once, then replay single-row requests built from
  // the first dirty rows (arena-off first, same reasoning as above).
  TensorArena::Global().SetEnabled(true);
  GrimpEngine engine(full);
  if (auto fitted = engine.Fit(corrupted.dirty); !fitted.ok()) {
    std::fprintf(stderr, "bench_alloc: engine fit failed: %s\n",
                 fitted.ToString().c_str());
    return 1;
  }
  constexpr int64_t kRequests = 64;
  std::vector<Table> requests;
  for (int64_t r = 0;
       r < corrupted.dirty.num_rows() &&
       static_cast<int64_t>(requests.size()) < kRequests;
       ++r) {
    bool dirty_row = false;
    for (int c = 0; c < corrupted.dirty.num_cols(); ++c) {
      if (corrupted.dirty.IsMissing(r, c)) dirty_row = true;
    }
    if (!dirty_row) continue;
    Table request(corrupted.dirty.schema());
    std::vector<std::string> cells;
    cells.reserve(static_cast<size_t>(corrupted.dirty.num_cols()));
    for (int c = 0; c < corrupted.dirty.num_cols(); ++c) {
      cells.push_back(corrupted.dirty.column(c).StringAt(r));
    }
    if (!request.AppendRow(cells).ok()) return 1;
    requests.push_back(std::move(request));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "bench_alloc: no dirty rows to serve\n");
    return 1;
  }
  runs.push_back(RunServe(&engine, requests, /*arena_on=*/false));
  runs.push_back(RunServe(&engine, requests, /*arena_on=*/true));

  TensorArena::Global().SetEnabled(true);
  TensorArena::Global().PublishMetrics();
  const RunStats& full_off = runs[0];
  const RunStats& sampled_off = runs[1];
  const RunStats& full_on = runs[2];
  const RunStats& sampled_on = runs[3];
  const RunStats& serve_off = runs[4];
  const RunStats& serve_on = runs[5];

  const bool identical = Identical(full_off, full_on) &&
                         Identical(sampled_off, sampled_on) &&
                         Identical(serve_off, serve_on);

  std::printf("%-8s %6s %7s %7s %14s %14s %12s\n", "mode", "arena", "epochs",
              "steps", "epoch s", "step s", "allocs/step");
  for (const RunStats& r : runs) {
    std::printf("%-8s %6s %7d %7lld %14.6f %14.8f %12.1f\n", r.mode.c_str(),
                r.arena ? "on" : "off", r.epochs, r.steps,
                r.mean_epoch_seconds, r.steady_step_seconds,
                r.steady_allocs_per_step);
  }

  const double full_speedup =
      full_off.steady_step_seconds / full_on.steady_step_seconds;
  const double sampled_speedup =
      sampled_off.steady_step_seconds / sampled_on.steady_step_seconds;
  const double full_reduction = Reduction(full_off.steady_allocs_per_step,
                                          full_on.steady_allocs_per_step);
  const double sampled_reduction = Reduction(
      sampled_off.steady_allocs_per_step, sampled_on.steady_allocs_per_step);
  const double serve_speedup =
      serve_off.steady_step_seconds / serve_on.steady_step_seconds;
  const double serve_reduction = Reduction(serve_off.steady_allocs_per_step,
                                           serve_on.steady_allocs_per_step);
  std::printf("\nfull:    step speedup %.2fx, alloc reduction %.1f%%\n",
              full_speedup, 100.0 * full_reduction);
  std::printf("sampled: step speedup %.2fx, alloc reduction %.1f%%\n",
              sampled_speedup, 100.0 * sampled_reduction);
  std::printf("serve:   request speedup %.2fx, alloc reduction %.1f%%\n",
              serve_speedup, 100.0 * serve_reduction);
  std::printf("bit-identical results: %s\n", identical ? "yes" : "NO");

  char head[400];
  std::snprintf(head, sizeof(head),
                "{\n  \"dataset\": \"adult\",\n  \"rows\": %lld,\n"
                "  \"epochs\": %d,\n  \"max_samples_per_task\": %lld,\n"
                "  \"batch_size\": %d,\n  \"fanout\": %d,\n"
                "  \"max_threads\": %d,\n  \"hardware_concurrency\": %d,\n"
                "  \"alloc_counting\": %s,\n  \"configs\": [\n",
                static_cast<long long>(clean.num_rows()), epochs,
                static_cast<long long>(samples), batch, fanout,
                grimp::bench::ResolveMaxThreads(),
                grimp::bench::HardwareConcurrency(),
                BENCH_ALLOC_COUNTING ? "true" : "false");
  char tail[512];
  std::snprintf(tail, sizeof(tail),
                "\n  ],\n"
                "  \"full_step_speedup\": %.4f,\n"
                "  \"full_alloc_reduction\": %.4f,\n"
                "  \"sampled_step_speedup\": %.4f,\n"
                "  \"sampled_alloc_reduction\": %.4f,\n"
                "  \"serve_request_speedup\": %.4f,\n"
                "  \"serve_alloc_reduction\": %.4f,\n"
                "  \"bit_identical\": %s\n}\n",
                full_speedup, full_reduction, sampled_speedup,
                sampled_reduction, serve_speedup, serve_reduction,
                identical ? "true" : "false");
  std::string json = head;
  for (size_t i = 0; i < runs.size(); ++i) {
    json += ToJson(runs[i]);
    if (i + 1 < runs.size()) json += ",\n";
  }
  json += tail;
  if (FILE* out = std::fopen("BENCH_alloc.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("wrote BENCH_alloc.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_alloc.json\n");
    return 1;
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: arena on/off runs diverged (losses or imputed cells "
                 "differ)\n");
    return 1;
  }
  const bool gate_on = rows >= 10000;
  const bool speedup_ok = sampled_speedup >= 1.25;
  const bool reduction_ok = BENCH_ALLOC_COUNTING && sampled_reduction >= 0.95;
  if (gate_on && !speedup_ok && !reduction_ok) {
    std::fprintf(stderr,
                 "FAIL: sampled config met neither gate at %lld rows: "
                 "step speedup %.2fx < 1.25x and alloc reduction %.1f%% "
                 "< 95%%\n",
                 static_cast<long long>(rows), sampled_speedup,
                 100.0 * sampled_reduction);
    return 1;
  }
  if (gate_on && BENCH_ALLOC_COUNTING && serve_reduction < 0.90) {
    std::fprintf(stderr,
                 "FAIL: serve alloc reduction %.1f%% < 90%% "
                 "(%.1f -> %.1f allocs/request)\n",
                 100.0 * serve_reduction, serve_off.steady_allocs_per_step,
                 serve_on.steady_allocs_per_step);
    return 1;
  }
  return 0;
}
