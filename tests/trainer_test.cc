#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "core/grimp.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "table/corruption.h"
#include "transform_copy.h"

namespace grimp {
namespace {

// Structured table: b and num are functions of a (same shape as the
// grimp_test fixture, so full-graph accuracy expectations carry over).
Table StructuredTable(int64_t rows) {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical},
                 {"num", AttrType::kNumerical}});
  Table t(schema);
  for (int64_t i = 0; i < rows; ++i) {
    const int a = static_cast<int>(i % 4);
    EXPECT_TRUE(t.AppendRow({"a" + std::to_string(a),
                             "b" + std::to_string(a % 2),
                             std::to_string(10 * a)})
                    .ok());
  }
  return t;
}

GrimpOptions SampledOptions(int pipeline_depth = 0) {
  GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.max_epochs = 50;
  options.seed = 21;
  options.train.mode = TrainMode::kSampled;
  options.train.batch_size = 32;
  options.train.fanouts = {4, 4};
  options.train.pipeline_depth = pipeline_depth;
  return options;
}

// The serial path and a pipeline deep enough that slot recycling and
// producer parking both get exercised.
constexpr int kPipelineDepths[] = {0, 4};

TEST(TrainerTest, SampledModeFillsEveryCellAndReportsSummary) {
  Table clean = StructuredTable(100);
  const CorruptedTable corrupted = InjectMcar(clean, 0.3, 1);
  for (const int depth : kPipelineDepths) {
    SCOPED_TRACE("pipeline depth " + std::to_string(depth));
    GrimpImputer grimp(SampledOptions(depth));
    auto imputed = grimp.Impute(corrupted.dirty);
    ASSERT_TRUE(imputed.ok());
    EXPECT_DOUBLE_EQ(imputed->MissingFraction(), 0.0);
    const TrainSummary& summary = grimp.summary();
    EXPECT_EQ(summary.mode, TrainMode::kSampled);
    EXPECT_GT(summary.epochs_run, 0);
    // ~70 train samples per task at batch 32 means several steps per epoch.
    EXPECT_GT(summary.steps_run, summary.epochs_run);
    EXPECT_GT(summary.num_parameters, 0);
    EXPECT_GT(summary.num_train_samples, 0);
    // Sampled training publishes a per-step loss series.
    EXPECT_GE(
        MetricsRegistry::Global().GetSeries("grimp.batch.train_loss").size(),
        static_cast<size_t>(summary.epochs_run));
  }
}

TEST(TrainerTest, SampledMatchesFullGraphAccuracy) {
  Table clean = StructuredTable(120);
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 2);
  GrimpOptions full_options = SampledOptions();
  full_options.train.mode = TrainMode::kFull;
  full_options.train.fanouts.clear();
  GrimpImputer full(full_options);
  GrimpImputer sampled(SampledOptions());
  const RunResult f = RunAlgorithm(clean, corrupted, &full);
  const RunResult s = RunAlgorithm(clean, corrupted, &sampled);
  ASSERT_TRUE(f.status.ok());
  ASSERT_TRUE(s.status.ok());
  // Sampled training trades exactness for per-step cost; on a table whose
  // columns are deterministic functions of each other it must stay close
  // to the full-graph result.
  EXPECT_GT(s.score.Accuracy(), f.score.Accuracy() - 0.15);
  EXPECT_GT(s.score.Accuracy(), 0.7);
}

TEST(TrainerTest, SampledDeterministicForSeed) {
  Table clean = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 4);
  for (const int depth : kPipelineDepths) {
    SCOPED_TRACE("pipeline depth " + std::to_string(depth));
    GrimpOptions options = SampledOptions(depth);
    options.max_epochs = 15;
    GrimpImputer a(options), b(options);
    auto ia = a.Impute(corrupted.dirty);
    auto ib = b.Impute(corrupted.dirty);
    ASSERT_TRUE(ia.ok());
    ASSERT_TRUE(ib.ok());
    for (const CellRef& cell : corrupted.missing_cells) {
      EXPECT_EQ(ia->column(cell.col).StringAt(cell.row),
                ib->column(cell.col).StringAt(cell.row));
    }
  }
}

// Regression test: neighbor sampling draws from per-batch Rng streams keyed
// only on (seed, epoch, batch), never on how work is sharded across
// threads, so the loss trajectory is invariant to the thread count.
TEST(TrainerTest, SampledLossesIndependentOfThreadCount) {
  Table clean = StructuredTable(80);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 9);
  auto run = [&](int num_threads) {
    GrimpOptions options = SampledOptions();
    options.max_epochs = 8;
    options.num_threads = num_threads;
    std::vector<double> losses;
    options.callbacks.on_epoch_end = [&losses](const EpochStats& stats) {
      losses.push_back(stats.train_loss);
      return true;
    };
    GrimpImputer grimp(options);
    auto imputed = grimp.Impute(corrupted.dirty);
    EXPECT_TRUE(imputed.ok());
    return losses;
  };
  const std::vector<double> single = run(1);
  const std::vector<double> multi = run(4);
  ASSERT_FALSE(single.empty());
  ASSERT_EQ(single.size(), multi.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_DOUBLE_EQ(single[i], multi[i]) << "epoch " << i;
  }
}

// The tentpole determinism contract: batch contents are a pure function of
// (seed, epoch, batch id), never of who prepared them, so the async
// batch-prep pipeline must reproduce the serial path bit for bit — the
// whole per-epoch loss trajectory AND every imputed cell — at any depth.
TEST(TrainerTest, SampledBitIdenticalAcrossPipelineDepths) {
  Table clean = StructuredTable(80);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 9);
  struct RunOutput {
    std::vector<double> losses;
    std::vector<std::string> cells;
  };
  auto run = [&](int depth) {
    GrimpOptions options = SampledOptions(depth);
    options.max_epochs = 8;
    RunOutput out;
    options.callbacks.on_epoch_end = [&out](const EpochStats& stats) {
      out.losses.push_back(stats.train_loss);
      return true;
    };
    GrimpImputer grimp(options);
    auto imputed = grimp.Impute(corrupted.dirty);
    EXPECT_TRUE(imputed.ok());
    for (const CellRef& cell : corrupted.missing_cells) {
      out.cells.push_back(imputed->column(cell.col).StringAt(cell.row));
    }
    return out;
  };
  const RunOutput serial = run(0);
  ASSERT_FALSE(serial.losses.empty());
  for (const int depth : {2, 4}) {
    const RunOutput piped = run(depth);
    ASSERT_EQ(serial.losses.size(), piped.losses.size()) << "depth " << depth;
    for (size_t i = 0; i < serial.losses.size(); ++i) {
      EXPECT_DOUBLE_EQ(serial.losses[i], piped.losses[i])
          << "depth " << depth << " epoch " << i;
    }
    ASSERT_EQ(serial.cells, piped.cells) << "depth " << depth;
  }
  // The pipelined runs must actually have produced/consumed batches.
  EXPECT_GE(
      MetricsRegistry::Global().GetCounter("train.pipeline.produced").value(),
      1.0);
  EXPECT_GE(
      MetricsRegistry::Global().GetCounter("train.pipeline.consumed").value(),
      1.0);
}

// Same contract along the other axis: at a fixed pipeline depth the loss
// trajectory is still invariant to GRIMP_NUM_THREADS (producers never
// touch the per-batch Rng streams, and the gather chunking is fixed).
TEST(TrainerTest, PipelinedLossesIndependentOfThreadCount) {
  Table clean = StructuredTable(80);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 9);
  auto run = [&](int num_threads) {
    GrimpOptions options = SampledOptions(/*pipeline_depth=*/4);
    options.max_epochs = 8;
    options.num_threads = num_threads;
    std::vector<double> losses;
    options.callbacks.on_epoch_end = [&losses](const EpochStats& stats) {
      losses.push_back(stats.train_loss);
      return true;
    };
    GrimpImputer grimp(options);
    auto imputed = grimp.Impute(corrupted.dirty);
    EXPECT_TRUE(imputed.ok());
    return losses;
  };
  const std::vector<double> single = run(1);
  const std::vector<double> multi = run(4);
  ASSERT_FALSE(single.empty());
  ASSERT_EQ(single.size(), multi.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_DOUBLE_EQ(single[i], multi[i]) << "epoch " << i;
  }
}

// An odd depth (3 producers over 4 slots) on a different table must train
// identically too.
TEST(TrainerTest, PipelineDepthFromConfigMatchesSerial) {
  Table clean = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 4);
  auto run = [&](int depth) {
    GrimpOptions options = SampledOptions(depth);
    options.max_epochs = 10;
    GrimpImputer grimp(options);
    auto imputed = grimp.Impute(corrupted.dirty);
    EXPECT_TRUE(imputed.ok());
    return std::move(*imputed);
  };
  const Table serial = run(0);
  const Table piped = run(3);
  for (const CellRef& cell : corrupted.missing_cells) {
    EXPECT_EQ(serial.column(cell.col).StringAt(cell.row),
              piped.column(cell.col).StringAt(cell.row));
  }
}

// Over a sharded store there is no full graph, so validation is itself a
// sampled pass through the pipeline. Both passes must be bit-identical at
// every depth: the per-epoch training AND validation losses, and the
// imputations served from the restored best weights.
TEST(TrainerTest, ShardedSampledPassesIdenticalAcrossPipelineDepths) {
  Table clean = StructuredTable(120);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 7);
  struct RunOutput {
    std::vector<double> train_losses;
    std::vector<double> val_losses;
    Table imputed;
  };
  auto run = [&](int depth) {
    GrimpOptions options = SampledOptions(depth);
    options.max_epochs = 6;
    options.graph.shard_mode = ShardMode::kSharded;
    options.graph.num_shards = 4;
    options.graph.max_resident_bytes = 1ll << 14;  // force eviction
    RunOutput out;
    options.callbacks.on_epoch_end = [&out](const EpochStats& stats) {
      out.train_losses.push_back(stats.train_loss);
      EXPECT_TRUE(stats.has_val);
      out.val_losses.push_back(stats.val_loss);
      return true;
    };
    GrimpEngine engine(options);
    EXPECT_TRUE(engine.Fit(corrupted.dirty).ok());
    auto imputed = TransformCopy(engine, corrupted.dirty);
    EXPECT_TRUE(imputed.ok());
    if (imputed.ok()) out.imputed = std::move(*imputed);
    return out;
  };
  const RunOutput serial = run(0);
  ASSERT_FALSE(serial.train_losses.empty());
  const RunOutput piped = run(4);
  ASSERT_EQ(serial.train_losses.size(), piped.train_losses.size());
  for (size_t i = 0; i < serial.train_losses.size(); ++i) {
    EXPECT_EQ(serial.train_losses[i], piped.train_losses[i]) << "epoch " << i;
    EXPECT_EQ(serial.val_losses[i], piped.val_losses[i]) << "epoch " << i;
  }
  for (const CellRef& cell : corrupted.missing_cells) {
    EXPECT_EQ(serial.imputed.column(cell.col).StringAt(cell.row),
              piped.imputed.column(cell.col).StringAt(cell.row));
  }
}

TEST(TrainerTest, EngineFitsSampledAndServesIdenticalTransforms) {
  Table clean = StructuredTable(90);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 6);
  GrimpOptions options = SampledOptions();
  options.max_epochs = 20;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(corrupted.dirty).ok());
  EXPECT_EQ(engine.summary().mode, TrainMode::kSampled);
  EXPECT_GT(engine.summary().epochs_run, 0);

  // Serving stays full-graph: the same request must decode bit-identically
  // across calls regardless of how the model was trained.
  Table request(clean.schema());
  ASSERT_TRUE(request.AppendRow({"a2", "", ""}).ok());
  auto first = TransformCopy(engine, request);
  auto second = TransformCopy(engine, request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(first->MissingFraction(), 0.0);
  for (int c = 0; c < first->num_cols(); ++c) {
    EXPECT_EQ(first->column(c).StringAt(0), second->column(c).StringAt(0));
  }
}

}  // namespace
}  // namespace grimp
