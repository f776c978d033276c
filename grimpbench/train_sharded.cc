// train_sharded: out-of-core sampled training. The scale replica is
// trained by GrimpEngine::Fit in sampled mode over a ShardedGraphStore
// whose resident budget is at most 1/8 of the adjacency, so nearly every
// acquire is a cold shard load. The op is one training epoch. The epoch
// count is fixed by --seconds (not by the clock), so the trained model, and
// with it the accuracy, does not depend on how fast the machine is.
//
// Nothing but the Fit holds the graph before peak_rss_mb is read: the
// budget is a constant, and the checks that build the graph in process run
// after the reading.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>

#include "core/engine.h"
#include "data/datasets.h"
#include "graph/builder.h"
#include "graph/store.h"
#include "probes.h"
#include "table/corruption.h"
#include "workloads.h"

namespace grimpbench {

namespace {

constexpr int64_t kRows = 30000;
constexpr double kMissingFraction = 0.2;
constexpr int64_t kSamplesPerTask = 128;
constexpr int kBatchSize = 128;
constexpr int kMinEpochs = 101;  // the first is skipped, p90 needs 100
constexpr double kEpochsPerSecond = 14;
constexpr int kCheckEpochs = 3;  // losses compared at an unbounded budget
constexpr int kCheckBatches = 8;  // sampler batches compared across stores
constexpr int64_t kScoreRows = 2000;
// The resident budget: just under 1/8 of the adjacency (InMemoryGraphStore
// total_bytes) of the kRows-row scale replica, which varies little with
// the seed. A run whose graph is smaller than 8x this fails its check.
constexpr int64_t kBudgetBytes = 315000;

grimp::GrimpOptions TrainOptions(uint64_t seed, int64_t budget_bytes,
                                 const std::string& spill_dir) {
  grimp::GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.seed = seed;
  options.max_samples_per_task = kSamplesPerTask;
  options.validation_fraction = 0.0;  // fixed epochs, no early stopping
  options.train.mode = grimp::TrainMode::kSampled;
  options.train.batch_size = kBatchSize;
  options.train.fanouts = {3, 3};
  if (budget_bytes > 0) {
    options.graph.shard_mode = grimp::ShardMode::kSharded;
    options.graph.max_resident_bytes = budget_bytes;
    options.graph.spill_dir = spill_dir;
  }
  return options;
}

}  // namespace

Outcome RunTrainSharded(const Args& args) {
  const int epochs_to_run = std::max(
      kMinEpochs, static_cast<int>(args.seconds * kEpochsPerSecond));
  Outcome out;
  const bool trace = Tracer::Get().enabled();

  // Set-up: generate and corrupt the table (repeated; the median counts).
  grimp::Table clean;
  grimp::CorruptedTable corrupted;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(Timed("setup.generate", [&] {
      clean = *grimp::GenerateDatasetByName("scale", args.seed, kRows);
      corrupted = grimp::InjectMcar(clean, kMissingFraction, args.seed + 1);
    }));
  }
  const int64_t budget = kBudgetBytes;
  const std::string spill_dir = args.work_dir + "/train_spill";
  ::mkdir(spill_dir.c_str(), 0755);

  // Measured phase: one sharded Fit.
  grimp::GrimpOptions options = TrainOptions(args.seed, budget, spill_dir);
  options.max_epochs = epochs_to_run;
  std::vector<double> epoch_ms, losses;
  double epoch_sum = 0.0;
  auto interleave = std::make_unique<TraceInterleave>(trace);
  options.callbacks.on_epoch_end = [&](const grimp::EpochStats& stats) {
    const double now = NowSeconds();
    Tracer::Get().Add("train.epoch", now - stats.seconds, now);
    epoch_sum += stats.seconds;
    losses.push_back(stats.train_loss);
    if (stats.epoch > 0) {
      epoch_ms.push_back(stats.seconds * 1e3);
      interleave->Record(stats.seconds * 1e3);
    }
    return true;
  };
  const CounterDelta counters(ShardCounterNames());
  grimp::GrimpEngine engine(options);
  const double fit_start = NowSeconds();
  grimp::Status fit = [&] {
    Span span("train_sharded.fit");
    return engine.Fit(corrupted.dirty);
  }();
  const double fit_s = NowSeconds() - fit_start;
  const double peak_rss_mb = PeakRssMb();
  if (trace) interleave->Report(&out);
  interleave.reset();
  ++out.attempted;
  const double steps = static_cast<double>(engine.summary().steps_run);
  const double epochs = static_cast<double>(losses.size());
  const double fetches = static_cast<double>(counters.Get("graph.shard.fetches"));
  if (!fit.ok()) {
    ++out.failed;
    out.Fail("sharded Fit failed: " + fit.ToString());
    return out;
  }

  // Check: the store is invisible to training. Fit builds a capped corpus
  // in sharded mode (BuildCappedTrainingCorpus) and the full corpus in
  // memory, so the in-memory Fit trains on other samples; the comparison
  // is therefore made in two halves. (a) The first epochs' losses are
  // bit-identical to the same Fit with a budget that keeps every shard
  // resident, so evictions and reloads change nothing. (b) Over the
  // in-memory store, the neighbor sampler draws bit-identical blocks at
  // the workload's batch size and fanouts. The budget must also be at most
  // 1/8 of this graph's adjacency.
  {
    Span span("check.store_invariance");
    const grimp::TableGraph tg = grimp::BuildTableGraph(corrupted.dirty);
    const grimp::InMemoryGraphStore mem(&tg.graph);
    const int64_t graph_bytes = mem.total_bytes();
    std::printf("  shard budget %lld bytes = 1/%.2f of the adjacency\n",
                static_cast<long long>(budget),
                static_cast<double>(graph_bytes) / static_cast<double>(budget));
    if (budget > graph_bytes / 8) {
      out.Fail("shard budget above 1/8 of the adjacency");
    }
    grimp::GrimpOptions resident =
        TrainOptions(args.seed, 4 * graph_bytes + 1, spill_dir);
    resident.max_epochs = kCheckEpochs;
    std::vector<double> resident_losses;
    resident.callbacks.on_epoch_end = [&](const grimp::EpochStats& s) {
      resident_losses.push_back(s.train_loss);
      return true;
    };
    grimp::GrimpEngine resident_engine(resident);
    if (!resident_engine.Fit(corrupted.dirty).ok() ||
        losses.size() < resident_losses.size() ||
        !std::equal(resident_losses.begin(), resident_losses.end(),
                    losses.begin())) {
      out.Fail("per-epoch losses depend on the shard budget");
    }
    grimp::ShardedGraphStore::Options store_options;
    store_options.max_resident_bytes = budget;
    store_options.spill_dir = spill_dir;
    auto sharded = grimp::ShardedGraphStore::Create(tg.graph, store_options);
    if (!sharded.ok()) {
      out.Fail("ShardedGraphStore::Create: " + sharded.status().ToString());
    } else {
      CheckSamplerInvariance(**sharded, mem, tg, options.train.fanouts,
                             kBatchSize, kCheckBatches, args.seed, &out);
    }
  }

  // Score the sharded model: impute a slice of the dirty table with
  // TransformMany and compare with the truth.
  Scorer score(corrupted.dirty, clean);
  {
    Span span("check.score");
    grimp::Table slice = CopyRows(corrupted.dirty, 0, kScoreRows);
    grimp::Table* p = &slice;
    if (!engine.TransformMany(std::span<grimp::Table* const>(&p, 1)).ok()) {
      out.Fail("TransformMany on the sharded model failed");
    }
    score.AddRows(slice, corrupted.dirty, 0);
  }
  CheckQuality(score, &out);

  if (!trace) {
    SetEndToEnd(Median(setup_s) + (fit_s - epoch_sum), peak_rss_mb, epoch_ms,
                &out);
    return out;
  }

  SetShardCounters(counters, steps, &out);
  ProbeContext ctx;
  ctx.dirty = &corrupted.dirty;
  ctx.clean = &clean;
  ctx.seed = args.seed;
  ctx.dim = options.dim;
  ctx.batch_size = kBatchSize;
  ctx.fanouts = options.train.fanouts;
  ctx.shard_budget_bytes = budget;
  ctx.work_dir = args.work_dir;
  ctx.op_seconds = Median(epoch_ms) / 1e3;
  ctx.fetches_per_op = fetches / epochs;
  ctx.steps_per_op = steps / epochs;
  RunLayerProbes(ctx, &out);
  return out;
}

}  // namespace grimpbench
