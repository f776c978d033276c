// impute_adult: the paper's transductive task. The adult replica with 20%
// MCAR cells is imputed by GrimpImputer with default GrimpOptions
// (full-graph training with early stopping). The op is one training epoch;
// Impute is called repeatedly on the same table for the measured time.

#include <cstdio>
#include <memory>

#include "common/thread_pool.h"
#include "core/grimp.h"
#include "data/datasets.h"
#include "probes.h"
#include "table/corruption.h"
#include "workloads.h"

namespace grimpbench {

namespace {

constexpr int64_t kRows = 1200;
constexpr double kMissingFraction = 0.2;
constexpr int kMinEpochSamples = 100;

struct ImputeRun {
  bool ok = false;
  grimp::Table imputed;
  std::vector<double> epoch_ms;  // steady-state epochs (first skipped)
  double non_epoch_s = 0.0;      // Impute wall time outside epochs
  grimp::TrainSummary summary;
};

ImputeRun ImputeOnce(const grimp::CorruptedTable& corrupted,
                     int num_threads, TraceInterleave* interleave) {
  ImputeRun run;
  grimp::GrimpOptions options;
  options.num_threads = num_threads;
  double epoch_sum = 0.0;
  options.callbacks.on_epoch_end = [&](const grimp::EpochStats& stats) {
    const double now = NowSeconds();
    Tracer::Get().Add("impute.epoch", now - stats.seconds, now);
    epoch_sum += stats.seconds;
    if (stats.epoch > 0) {
      run.epoch_ms.push_back(stats.seconds * 1e3);
      interleave->Record(stats.seconds * 1e3);
    }
    return true;
  };
  grimp::GrimpImputer imputer(options);
  const double t0 = NowSeconds();
  grimp::Result<grimp::Table> imputed = [&] {
    Span span("impute_adult.impute");
    return imputer.Impute(corrupted.dirty);
  }();
  run.non_epoch_s = NowSeconds() - t0 - epoch_sum;
  if (!imputed.ok()) {
    std::fprintf(stderr, "impute_adult: %s\n",
                 imputed.status().ToString().c_str());
    return run;
  }
  run.ok = true;
  run.imputed = std::move(*imputed);
  run.summary = imputer.summary();
  return run;
}

}  // namespace

Outcome RunImputeAdult(const Args& args) {
  Outcome out;
  const bool trace = Tracer::Get().enabled();

  // Set-up: generate and corrupt the table (repeated; the median counts).
  grimp::Table clean;
  grimp::CorruptedTable corrupted;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(Timed("setup.generate", [&] {
      clean = *grimp::GenerateDatasetByName("adult", args.seed, kRows);
      corrupted = grimp::InjectMcar(clean, kMissingFraction, args.seed + 1);
    }));
  }

  // Measured phase: Impute calls until the time is up.
  const CounterDelta counters(ShardCounterNames());
  std::vector<double> epoch_ms, non_epoch_s;
  auto interleave = std::make_unique<TraceInterleave>(trace);
  ImputeRun first;
  const double start = NowSeconds();
  while (out.attempted < 2 || NowSeconds() - start < args.seconds ||
         static_cast<int>(epoch_ms.size()) < kMinEpochSamples) {
    ImputeRun run =
        ImputeOnce(corrupted, /*num_threads=*/0, interleave.get());
    ++out.attempted;
    if (!run.ok) {
      ++out.failed;
      out.Fail("Impute failed");
      break;
    }
    epoch_ms.insert(epoch_ms.end(), run.epoch_ms.begin(), run.epoch_ms.end());
    non_epoch_s.push_back(run.non_epoch_s);
    if (out.attempted == 1) {
      first = std::move(run);
    } else if (!TablesEqual(run.imputed, first.imputed)) {
      out.Fail("repeated Impute calls on the same table disagree");
    }
  }
  const double peak_rss_mb = PeakRssMb();
  if (trace) interleave->Report(&out);
  interleave.reset();

  // Check: the imputation is identical at one thread.
  if (first.ok) {
    Span span("check.one_thread");
    TraceInterleave inactive(false);
    ImputeRun one =
        ImputeOnce(corrupted, /*num_threads=*/1, &inactive);
    grimp::ThreadPool::SetGlobalThreads(MaxThreads());
    if (!one.ok || !TablesEqual(one.imputed, first.imputed)) {
      out.Fail("Impute at 1 thread differs from Impute at " +
               std::to_string(MaxThreads()) + " threads");
    }
  }

  Scorer score(corrupted.dirty, clean);
  if (first.ok) score.AddRows(first.imputed, corrupted.dirty, 0);
  CheckQuality(score, &out);

  if (!trace) {
    SetEndToEnd(Median(setup_s) + Median(non_epoch_s), peak_rss_mb, epoch_ms,
                &out);
    return out;
  }

  // Full-graph training: no sampled steps.
  SetShardCounters(counters, 0.0, &out);
  ProbeContext ctx;
  ctx.dirty = &corrupted.dirty;
  ctx.clean = &clean;
  ctx.seed = args.seed;
  ctx.work_dir = args.work_dir;
  ctx.op_seconds = Median(epoch_ms) / 1e3;
  // Full-graph training: no shard traffic and no neighbor sampling.
  ctx.fetches_per_op = 0.0;
  ctx.steps_per_op = 0.0;
  RunLayerProbes(ctx, &out);
  return out;
}

}  // namespace grimpbench
