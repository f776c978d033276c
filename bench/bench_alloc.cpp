// Allocation benchmark for the steady state: trains one model per training
// mode (full, sampled) on a corrupted table and measures steady-state
// per-step wall time plus per-step heap allocations (a counting operator
// new in this binary). Tensor buffers are recycled by the tape's node slots
// and by caller scratch, so a warmed-up step allocates almost nothing.
//
// A third workload covers serving: a GrimpEngine is fitted once, then
// single-row requests run through TransformMany — the exact call the
// request scheduler makes per batch — measuring per-request wall time and
// allocations. Request copies happen outside the timed window, so the
// measurement is the serve hot path alone, as a long-lived server sees it.
//
// At 10000 rows and above (the default is 20000) the run fails (exit 1)
// when a steady-state step or request allocates more than its bound: 32
// (full), 4 (sampled) and 25 (serve) heap allocations on average. The
// allocation smoke test holds the same bounds at smoke size. Results go to
// BENCH_alloc.json (cwd).
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
using grimp::TrainMode;
using grimp::TrainModeName;

// Steady-state heap allocations allowed per training step or request.
struct AllocBound {
  const char* mode;
  double max_allocs_per_step;
};
constexpr AllocBound kAllocBounds[] = {
    {"full", 32.0}, {"sampled", 4.0}, {"serve", 25.0}};

struct RunStats {
  std::string mode;
  int epochs = 0;
  long long steps = 0;
  double mean_epoch_seconds = 0.0;
  double steady_step_seconds = 0.0;
  double steady_allocs_per_step = 0.0;
};

RunStats RunOnce(const CorruptedTable& corrupted, GrimpOptions options) {
  std::vector<double> epoch_seconds;
  std::vector<long long> allocs_at_epoch_end;
  RunStats stats;
  options.callbacks.on_epoch_end = [&](const grimp::EpochStats& s) {
    epoch_seconds.push_back(s.seconds);
    allocs_at_epoch_end.push_back(
        g_heap_allocs.load(std::memory_order_relaxed));
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
  stats.epochs = static_cast<int>(epoch_seconds.size());
  stats.steps = imputer.summary().steps_run;

  // Epoch 1 absorbs warmup (tape slot and scratch sizing); the
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
// the wire, with no result copy. One warmup pass grows the engine's caches
// and the per-thread transform scratch (its tape slots included); the
// measured pass is the steady state a long-lived server sits in. The
// in-place call consumes its request table (missing cells get filled), so
// fresh copies are made outside the timed window.
RunStats RunServe(GrimpEngine* engine, const std::vector<Table>& requests) {
  RunStats stats;
  stats.mode = "serve";
  stats.steps = static_cast<long long>(requests.size());
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
  stats.mean_epoch_seconds = seconds;
  stats.steady_step_seconds = seconds / static_cast<double>(requests.size());
  stats.steady_allocs_per_step =
      static_cast<double>(allocs) / static_cast<double>(requests.size());
  return stats;
}

std::string ToJson(const RunStats& r, double bound) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "    {\"mode\": \"%s\", \"epochs\": %d, "
                "\"steps\": %lld, \"mean_epoch_seconds\": %.6f, "
                "\"steady_step_seconds\": %.8f, "
                "\"steady_allocs_per_step\": %.2f, "
                "\"max_allocs_per_step\": %.0f}",
                r.mode.c_str(), r.epochs, r.steps, r.mean_epoch_seconds,
                r.steady_step_seconds, r.steady_allocs_per_step, bound);
  return buf;
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

  // One run per mode, in kAllocBounds order.
  std::vector<RunStats> runs;
  runs.push_back(RunOnce(corrupted, full));
  runs.push_back(RunOnce(corrupted, sampled));

  // Serving workload: fit once, then replay single-row requests built from
  // the first dirty rows.
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
  runs.push_back(RunServe(&engine, requests));

  std::printf("%-8s %7s %7s %14s %14s %12s %6s\n", "mode", "epochs", "steps",
              "epoch s", "step s", "allocs/step", "bound");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunStats& r = runs[i];
    std::printf("%-8s %7d %7lld %14.6f %14.8f %12.1f %6.0f\n", r.mode.c_str(),
                r.epochs, r.steps, r.mean_epoch_seconds, r.steady_step_seconds,
                r.steady_allocs_per_step, kAllocBounds[i].max_allocs_per_step);
  }

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
  std::string json = head;
  for (size_t i = 0; i < runs.size(); ++i) {
    json += ToJson(runs[i], kAllocBounds[i].max_allocs_per_step);
    if (i + 1 < runs.size()) json += ",\n";
  }
  json += "\n  ]\n}\n";
  if (FILE* out = std::fopen("BENCH_alloc.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("wrote BENCH_alloc.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_alloc.json\n");
    return 1;
  }

  if (rows < 10000 || !BENCH_ALLOC_COUNTING) return 0;
  bool ok = true;
  for (size_t i = 0; i < runs.size(); ++i) {
    const AllocBound& bound = kAllocBounds[i];
    if (runs[i].steady_allocs_per_step > bound.max_allocs_per_step) {
      std::fprintf(stderr,
                   "FAIL: %s steady state allocates %.1f times per step "
                   "(bound %.0f)\n",
                   bound.mode, runs[i].steady_allocs_per_step,
                   bound.max_allocs_per_step);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
