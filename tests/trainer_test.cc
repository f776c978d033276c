#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attention_reference.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/batch.h"
#include "core/engine.h"
#include "core/grimp.h"
#include "core/trainer.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "exact_cells.h"
#include "graph/builder.h"
#include "table/corruption.h"
#include "tensor/optimizer.h"
#include "tensor/simd.h"
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
// sampled pass through the same grouped preparation. Both passes must be
// bit-identical at every depth: the per-epoch training AND validation
// losses, and the imputations served from the restored best weights.
// At batch 17 the passes hold 14 training and 4 validation batches, so
// depth 3 leaves a short last group in both, and depth 16 exceeds a pass's
// batch count, so one group covers the whole pass (the test checks both).
TEST(TrainerTest, ShardedSampledPassesIdenticalAcrossPipelineDepths) {
  Table clean = StructuredTable(120);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 7);
  struct RunOutput {
    std::vector<double> train_losses;
    std::vector<double> val_losses;
    Table imputed;
    int64_t train_batches = 0;  // per epoch
    int64_t val_batches = 0;    // per validation pass
  };
  auto run = [&](int depth, int batch_size) {
    GrimpOptions options = SampledOptions(depth);
    options.max_epochs = 6;
    options.train.batch_size = batch_size;
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
    Counter& consumed =
        MetricsRegistry::Global().GetCounter("train.pipeline.consumed");
    const int64_t consumed_before = consumed.value();
    GrimpEngine engine(options);
    EXPECT_TRUE(engine.Fit(corrupted.dirty).ok());
    const TrainSummary& summary = engine.summary();
    if (summary.epochs_run > 0) {
      // One training and one validation pass per epoch.
      out.train_batches = summary.steps_run / summary.epochs_run;
      out.val_batches =
          (consumed.value() - consumed_before) / summary.epochs_run -
          out.train_batches;
    }
    auto imputed = TransformCopy(engine, corrupted.dirty);
    EXPECT_TRUE(imputed.ok());
    if (imputed.ok()) out.imputed = std::move(*imputed);
    return out;
  };
  auto expect_identical = [&](const RunOutput& serial,
                              const RunOutput& piped) {
    ASSERT_EQ(serial.train_losses.size(), piped.train_losses.size());
    for (size_t i = 0; i < serial.train_losses.size(); ++i) {
      EXPECT_EQ(serial.train_losses[i], piped.train_losses[i])
          << "epoch " << i;
      EXPECT_EQ(serial.val_losses[i], piped.val_losses[i]) << "epoch " << i;
    }
    for (const CellRef& cell : corrupted.missing_cells) {
      EXPECT_EQ(serial.imputed.column(cell.col).StringAt(cell.row),
                piped.imputed.column(cell.col).StringAt(cell.row));
    }
  };
  const RunOutput serial = run(0, 32);
  ASSERT_FALSE(serial.train_losses.empty());
  expect_identical(serial, run(4, 32));

  const RunOutput serial17 = run(0, 17);
  ASSERT_FALSE(serial17.train_losses.empty());
  EXPECT_NE(serial17.train_batches % 3, 0) << serial17.train_batches;
  EXPECT_NE(serial17.val_batches % 3, 0) << serial17.val_batches;
  EXPECT_LT(serial17.train_batches, 16);
  for (const int depth : {3, 16}) {
    SCOPED_TRACE("pipeline depth " + std::to_string(depth));
    expect_identical(serial17, run(depth, 17));
  }
}

// A hand-built full-mode Trainer over a 14-column table's graph: 14 tasks,
// alternating categorical linear heads and numerical attention heads,
// random gather indices over the cell nodes (about 1 in 8 cells masked;
// like the corpus's vectors, none reads a RID node, so full-graph passes
// compute a strict subset of the rows). Task 5 has no
// training samples (a validation-only task) and task 9 no
// validation samples.
struct FullModeFixture {
  static constexpr int kCols = 14;
  static constexpr int kDim = 8;

  Table table;
  TableGraph tg;
  std::unique_ptr<InMemoryGraphStore> store;
  Tensor features;
  HeteroGnn gnn;
  Mlp shared;
  std::vector<std::unique_ptr<TaskHead>> heads;
  GrimpOptions options;

  explicit FullModeFixture(int gnn_layers = 2) : table(MakeSchema()) {
    for (int r = 0; r < 40; ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < kCols; ++c) {
        row.push_back("v" + std::to_string((r * (c + 1)) % (3 + c % 4)));
      }
      EXPECT_TRUE(table.AppendRow(row).ok());
    }
    auto built = GraphBuilder().Build(table);
    EXPECT_TRUE(built.ok());
    tg = std::move(*built);
    store = std::make_unique<InMemoryGraphStore>(&tg.graph);
    Rng rng(17);
    features = Tensor::GlorotUniform(tg.graph.num_nodes(), kDim, &rng);
    gnn = HeteroGnn(tg.graph.num_edge_types(), kDim, kDim, kDim, gnn_layers,
                    &rng);
    shared = Mlp("shared", {kDim, 16, kDim}, &rng);
    const Tensor column_features = Tensor::GlorotUniform(kCols, kDim, &rng);
    for (int t = 0; t < kCols; ++t) {
      const std::string name = "task" + std::to_string(t);
      if (t % 2 == 0) {
        heads.push_back(std::make_unique<LinearTaskHead>(name, kCols, kDim,
                                                         16, 4, &rng));
      } else {
        heads.push_back(std::make_unique<AttentionTaskHead>(
            name, column_features, std::vector<float>(kCols, 1.0f), kDim, 1,
            &rng, 8));
      }
    }
    options.dim = kDim;
    options.gnn_layers = gnn_layers;
    options.max_epochs = 6;
    options.patience = 100;
    options.train.mode = TrainMode::kFull;
  }

  static Schema MakeSchema() {
    std::vector<Field> fields;
    for (int c = 0; c < kCols; ++c) {
      fields.push_back({"c" + std::to_string(c), AttrType::kCategorical});
    }
    return Schema(fields);
  }

  std::vector<TrainTask> MakeTasks() const {
    Rng rng(29);
    std::vector<int32_t> cells;
    for (size_t v = 0; v < tg.graph.nodes().size(); ++v) {
      if (tg.graph.nodes()[v].kind == NodeKind::kCell) {
        cells.push_back(static_cast<int32_t>(v));
      }
    }
    std::vector<TrainTask> tasks(kCols);
    for (int t = 0; t < kCols; ++t) {
      TrainTask& task = tasks[static_cast<size_t>(t)];
      task.categorical = t % 2 == 0;
      task.head = heads[static_cast<size_t>(t)].get();
      const auto fill = [&](int samples, std::vector<int32_t>* idx,
                            std::vector<int32_t>* labels,
                            std::vector<float>* targets) {
        for (int i = 0; i < samples * kCols; ++i) {
          idx->push_back(rng.Uniform(8) == 0
                             ? -1
                             : cells[rng.Uniform(cells.size())]);
        }
        for (int i = 0; i < samples; ++i) {
          if (task.categorical) {
            labels->push_back(static_cast<int32_t>(rng.Uniform(4)));
          } else {
            targets->push_back(rng.UniformReal(-1.0f, 1.0f));
          }
        }
      };
      fill(t == 5 ? 0 : 20 + t, &task.train_idx, &task.train_labels,
           &task.train_targets);
      fill(t == 9 ? 0 : 6, &task.val_idx, &task.val_labels,
           &task.val_targets);
    }
    return tasks;
  }

  // The parameters a Trainer over this fixture optimizes.
  void CollectParameters(std::vector<Parameter*>* params) {
    if (options.use_gnn) gnn.CollectParameters(params);
    shared.CollectParameters(params);
    for (auto& head : heads) head->CollectParameters(params);
  }
};

// Restores the global pool size a test changes, also when an assertion
// returns early.
class ComputeSettingsGuard {
 public:
  ComputeSettingsGuard() : threads_(ThreadPool::GlobalThreads()) {}
  ~ComputeSettingsGuard() { ThreadPool::SetGlobalThreads(threads_); }

 private:
  int threads_;
};

// The full-mode heads run as one task loop on the pool and their
// gradients are reduced row-parallel in a fixed per-row order, so the
// whole trajectory — per-epoch train and val losses — and the final
// weights are bit-identical at 1, 3 and 4 threads.
TEST(TrainerTest, FullModeLossesIndependentOfThreadCount) {
  struct RunOutput {
    std::vector<double> train_losses;
    std::vector<double> val_losses;
    std::vector<Tensor> params;
  };
  ComputeSettingsGuard guard;
  auto run = [](int num_threads) {
    ThreadPool::SetGlobalThreads(num_threads);
    FullModeFixture fx;
    RunOutput out;
    TrainCallbacks callbacks;
    callbacks.on_epoch_end = [&out](const EpochStats& stats) {
      out.train_losses.push_back(stats.train_loss);
      EXPECT_TRUE(stats.has_val);
      out.val_losses.push_back(stats.val_loss);
      return true;
    };
    Trainer trainer(fx.options, fx.store.get(), &fx.features, &fx.gnn,
                    &fx.shared, fx.MakeTasks(), FullModeFixture::kCols);
    auto summary = trainer.Run(callbacks);
    EXPECT_TRUE(summary.ok());
    std::vector<Parameter*> params;
    fx.CollectParameters(&params);
    for (const Parameter* p : params) out.params.push_back(p->value);
    return out;
  };
  const RunOutput serial = run(1);
  ASSERT_EQ(serial.train_losses.size(), 6u);
  for (const int threads : {3, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const RunOutput other = run(threads);
    // EXPECT_EQ on doubles: exact equality, not DOUBLE_EQ's 4 ulps.
    EXPECT_EQ(serial.train_losses, other.train_losses);
    EXPECT_EQ(serial.val_losses, other.val_losses);
    ASSERT_EQ(serial.params.size(), other.params.size());
    for (size_t i = 0; i < serial.params.size(); ++i) {
      const Tensor& a = serial.params[i];
      const Tensor& b = other.params[i];
      ASSERT_TRUE(a.SameShape(b)) << "param " << i;
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            static_cast<size_t>(a.size()) * sizeof(float)),
                0)
          << "param " << i;
    }
  }
}

// Grouped preparation over a sharded store, on a hand-built sampled
// Trainer: at batch 8 task 0's 20 training samples make 3 batches, so the
// first group of 4 spans the task 0 / task 1 boundary, and task 0's last
// batch has every cell masked (it samples the dummy seed). Validation is a
// sampled pass too (no full graph). Losses and final weights at depth 4,
// at 1 and 4 threads, must equal the one-batch-at-a-time run bit for bit.
TEST(TrainerTest, ShardedGroupSpanningATaskBoundaryAndAMaskedBatch) {
  struct RunOutput {
    std::vector<double> train_losses;
    std::vector<double> val_losses;
    std::vector<Tensor> params;
  };
  ComputeSettingsGuard guard;
  auto run = [](int depth, int num_threads) {
    ThreadPool::SetGlobalThreads(num_threads);
    FullModeFixture fx;
    fx.options.train.mode = TrainMode::kSampled;
    fx.options.train.batch_size = 8;
    fx.options.train.fanouts = {3, 3};
    fx.options.train.pipeline_depth = depth;
    ShardedGraphStore::Options store_options;
    store_options.num_shards = 4;
    store_options.max_resident_bytes = 1ll << 12;  // force eviction
    auto store = ShardedGraphStore::Create(fx.tg.graph, store_options);
    EXPECT_TRUE(store.ok());
    std::vector<TrainTask> tasks = fx.MakeTasks();
    EXPECT_EQ(tasks[0].NumTrain(), 20);
    std::fill(tasks[0].train_idx.begin() + 16 * FullModeFixture::kCols,
              tasks[0].train_idx.end(), -1);
    RunOutput out;
    TrainCallbacks callbacks;
    callbacks.on_epoch_end = [&out](const EpochStats& stats) {
      out.train_losses.push_back(stats.train_loss);
      EXPECT_TRUE(stats.has_val);
      out.val_losses.push_back(stats.val_loss);
      return true;
    };
    Trainer trainer(fx.options, store->get(), &fx.features, &fx.gnn,
                    &fx.shared, std::move(tasks), FullModeFixture::kCols);
    auto summary = trainer.Run(callbacks);
    EXPECT_TRUE(summary.ok());
    std::vector<Parameter*> params;
    fx.CollectParameters(&params);
    for (const Parameter* p : params) out.params.push_back(p->value);
    return out;
  };
  const RunOutput serial = run(/*depth=*/1, /*num_threads=*/1);
  ASSERT_EQ(serial.train_losses.size(), 6u);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const RunOutput grouped = run(/*depth=*/4, threads);
    EXPECT_EQ(serial.train_losses, grouped.train_losses);
    EXPECT_EQ(serial.val_losses, grouped.val_losses);
    ASSERT_EQ(serial.params.size(), grouped.params.size());
    for (size_t i = 0; i < serial.params.size(); ++i) {
      const Tensor& a = serial.params[i];
      const Tensor& b = grouped.params[i];
      ASSERT_TRUE(a.SameShape(b)) << "param " << i;
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            static_cast<size_t>(a.size()) * sizeof(float)),
                0)
          << "param " << i;
    }
  }
}

// The fixture's shared representation on one unpruned tape: every node's
// row of the shared MLP over the whole-graph GNN (or over the features
// themselves without the GNN).
Tape::VarId WholeGraphForward(Tape* tape, const FullModeFixture& fx) {
  const Tape::VarId feats = tape->Constant(fx.features);
  return fx.shared.Forward(
      tape, fx.options.use_gnn ? fx.gnn.Forward(tape, feats, fx.tg.graph)
                               : feats);
}

// The fixture's full-mode configurations: the default 2-layer GNN, 1 and 3
// layers (the pruned layer is then the only one, or above two whole-graph
// layers), and no GNN at all.
struct FullModeConfig {
  std::string name;
  int gnn_layers;
  bool use_gnn;
};
const FullModeConfig kFullModeConfigs[] = {{"gnn2", 2, true},
                                           {"gnn1", 1, true},
                                           {"gnn3", 3, true},
                                           {"no_gnn", 2, false}};

// The task loop and reduce replay one shared tape exactly: a full-mode
// epoch gives the same loss and weight bits as the single-tape recipe —
// every task's head and loss recorded on the unpruned shared forward's
// tape, one Add chain, one backward, one clipped Adam step. So the read-set
// forward (the last GNN layer and the shared MLP over only the rows the
// heads read) moves no bit either. The weights are read at the epoch's end:
// Run then restores the pre-step weights its validation scored.
TEST(TrainerTest, FullModeEpochMatchesOneSharedTape) {
  ComputeSettingsGuard guard;
  ThreadPool::SetGlobalThreads(4);
  constexpr int kCols = FullModeFixture::kCols;
  constexpr int kDim = FullModeFixture::kDim;

  for (const FullModeConfig& config : kFullModeConfigs) {
    SCOPED_TRACE(config.name);
    FullModeFixture ref(config.gnn_layers);
    ref.options.use_gnn = config.use_gnn;
    const std::vector<TrainTask> tasks = ref.MakeTasks();
    std::vector<Parameter*> ref_params;
    ref.CollectParameters(&ref_params);
    Adam opt(ref_params, ref.options.learning_rate);
    Tape tape;
    const Tape::VarId h = WholeGraphForward(&tape, ref);
    Tape::VarId total = -1;
    for (const TrainTask& task : tasks) {
      if (task.train_idx.empty()) continue;
      const Tape::VarId out =
          TaskHeadForward(&tape, *task.head, h, &task.train_idx, kCols, kDim);
      const Tape::VarId loss =
          task.categorical ? tape.SoftmaxCrossEntropy(out, &task.train_labels)
                           : tape.MseLoss(out, &task.train_targets);
      total = total < 0 ? loss : tape.Add(total, loss);
    }
    tape.BackwardFrom(total, Tensor::Scalar(1.0f));
    opt.ClipGradNorm(ref.options.grad_clip);
    opt.Step();

    FullModeFixture fx(config.gnn_layers);
    fx.options.use_gnn = config.use_gnn;
    fx.options.max_epochs = 1;
    std::vector<Parameter*> params;
    fx.CollectParameters(&params);
    double train_loss = 0.0;
    std::vector<Tensor> stepped;  // the weights after the epoch's step
    TrainCallbacks callbacks;
    callbacks.on_epoch_end = [&](const EpochStats& stats) {
      train_loss = stats.train_loss;
      for (const Parameter* p : params) stepped.push_back(p->value);
      return true;
    };
    Trainer trainer(fx.options, fx.store.get(), &fx.features,
                    config.use_gnn ? &fx.gnn : nullptr, &fx.shared,
                    fx.MakeTasks(), kCols);
    ASSERT_TRUE(trainer.Run(callbacks).ok());
    EXPECT_EQ(train_loss, static_cast<double>(tape.value(total).scalar()));
    ASSERT_EQ(stepped.size(), ref_params.size());
    for (size_t i = 0; i < stepped.size(); ++i) {
      const Tensor& a = ref_params[i]->value;
      const Tensor& b = stepped[i];
      ASSERT_TRUE(a.SameShape(b)) << params[i]->name;
      EXPECT_EQ(std::memcmp(a.data(), b.data(),
                            static_cast<size_t>(a.size()) * sizeof(float)),
                0)
          << params[i]->name;
    }
  }
}

// The fixture's tasks, each with training samples validating on them, so
// the validation loss falls with the training loss for some epochs and the
// best epoch is not the first. Task 5 keeps its own validation samples,
// task 9 has none.
std::vector<TrainTask> SelfValidatingTasks(const FullModeFixture& fx) {
  std::vector<TrainTask> tasks = fx.MakeTasks();
  for (TrainTask& task : tasks) {
    if (task.NumTrain() == 0 || task.NumVal() == 0) continue;
    task.val_idx = task.train_idx;
    task.val_labels = task.train_labels;
    task.val_targets = task.train_targets;
  }
  return tasks;
}

// The one validation rule (trainer.h): each mode keeps the weights its
// validation scored, so scoring the restored weights with the mode's own
// validation pass gives exactly best_val_loss. In full mode that pass is
// the validation heads of an epoch, which score the weights before its
// step: a fresh one-epoch Trainer over the restored weights reports it.
// It also equals an unpruned shared tape's validation loss from those
// weights: every task's head and loss on its validation samples, summed in
// double in task order.
TEST(TrainerTest, FullModeRestoredWeightsScoreTheBestValidationLoss) {
  constexpr int kCols = FullModeFixture::kCols;
  constexpr int kDim = FullModeFixture::kDim;
  FullModeFixture fx;
  int improved = 0;
  TrainCallbacks callbacks;
  callbacks.on_epoch_end = [&improved](const EpochStats& stats) {
    EXPECT_TRUE(stats.has_val);
    improved += stats.improved ? 1 : 0;
    return true;
  };
  Trainer trainer(fx.options, fx.store.get(), &fx.features, &fx.gnn,
                  &fx.shared, SelfValidatingTasks(fx), kCols);
  auto summary = trainer.Run(callbacks);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->epochs_run, fx.options.max_epochs);
  EXPECT_GT(improved, 1);

  const std::vector<TrainTask> tasks = SelfValidatingTasks(fx);
  Tape tape;
  const Tape::VarId h = WholeGraphForward(&tape, fx);
  double expected = 0.0;
  for (const TrainTask& task : tasks) {
    if (task.val_idx.empty()) continue;
    const Tape::VarId out =
        TaskHeadForward(&tape, *task.head, h, &task.val_idx, kCols, kDim);
    expected += tape.value(task.categorical
                               ? tape.SoftmaxCrossEntropy(out,
                                                          &task.val_labels)
                               : tape.MseLoss(out, &task.val_targets))
                    .scalar();
  }
  EXPECT_EQ(expected, summary->best_val_loss);

  GrimpOptions one_epoch = fx.options;
  one_epoch.max_epochs = 1;
  double rescored = 0.0;
  TrainCallbacks rescore;
  rescore.on_epoch_end = [&rescored](const EpochStats& stats) {
    EXPECT_TRUE(stats.has_val);
    rescored = stats.val_loss;
    return true;
  };
  Trainer again(one_epoch, fx.store.get(), &fx.features, &fx.gnn, &fx.shared,
                SelfValidatingTasks(fx), kCols);
  ASSERT_TRUE(again.Run(rescore).ok());
  EXPECT_EQ(rescored, summary->best_val_loss);
}

// Sampled mode's validation pass is the minibatched one over fixed
// (seed, task, batch) streams, on every store. A warm-started Trainer that
// runs no epoch scores the restored weights with exactly that pass, and
// gets best_val_loss; the in-memory and the evicting 4-shard store agree
// on it bit for bit.
TEST(TrainerTest, SampledRestoredWeightsScoreTheBestValidationLoss) {
  constexpr int kCols = FullModeFixture::kCols;
  std::vector<double> best;
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "4 shards" : "in-memory");
    FullModeFixture fx;
    fx.options.train.mode = TrainMode::kSampled;
    fx.options.train.batch_size = 16;
    fx.options.train.fanouts = {3, 3};
    std::unique_ptr<GraphStore> store;
    if (sharded) {
      ShardedGraphStore::Options store_options;
      store_options.num_shards = 4;
      store_options.max_resident_bytes = 1ll << 12;  // force eviction
      auto created = ShardedGraphStore::Create(fx.tg.graph, store_options);
      ASSERT_TRUE(created.ok());
      store = std::move(*created);
    } else {
      store = std::make_unique<InMemoryGraphStore>(&fx.tg.graph);
    }
    int improved = 0;
    TrainCallbacks callbacks;
    callbacks.on_epoch_end = [&improved](const EpochStats& stats) {
      EXPECT_TRUE(stats.has_val);
      improved += stats.improved ? 1 : 0;
      return true;
    };
    Trainer trainer(fx.options, store.get(), &fx.features, &fx.gnn,
                    &fx.shared, SelfValidatingTasks(fx), kCols);
    auto summary = trainer.Run(callbacks);
    ASSERT_TRUE(summary.ok());
    ASSERT_EQ(summary->epochs_run, fx.options.max_epochs);
    EXPECT_GT(improved, 1);
    best.push_back(summary->best_val_loss);

    GrimpOptions no_epochs = fx.options;
    no_epochs.max_epochs = 0;
    Trainer again(no_epochs, store.get(), &fx.features, &fx.gnn, &fx.shared,
                  SelfValidatingTasks(fx), kCols);
    auto rescored = again.Run(TrainCallbacks{}, /*warm_start=*/true);
    ASSERT_TRUE(rescored.ok());
    EXPECT_EQ(rescored->epochs_run, 0);
    EXPECT_EQ(rescored->best_val_loss, summary->best_val_loss);
  }
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(best[0], best[1]);
}

// The indexed reduce replays the per-task scatter it replaced, on the
// fixture's mixed linear/attention task set at the scalar tier, at 1 and 4
// threads: each task's head runs on its own sub-tape; an attention head's
// block gradients are rebuilt by the replaced op chain
// (attention_reference.h) from the factors its node leaves; every task's
// dense block gradients are scattered into h_grad tasks descending, rows
// ascending. TaskGradReduce's h_grad, and the weights at the end of one
// Trainer epoch against one step from the reference h_grad, memcmp equal.
TEST(TrainerTest, FullModeMixedHeadReduceMatchesPerTaskScatter) {
  ComputeSettingsGuard guard;
  const SimdLevel level = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kScalar);
  constexpr int kCols = FullModeFixture::kCols;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool::SetGlobalThreads(threads);
    FullModeFixture ref;
    const std::vector<TrainTask> tasks = ref.MakeTasks();
    std::vector<Parameter*> ref_params;
    ref.CollectParameters(&ref_params);
    Adam opt(ref_params, ref.options.learning_rate);
    Tape tape;
    const Tape::VarId h_id = ref.shared.Forward(
        &tape,
        ref.gnn.Forward(&tape, tape.Constant(ref.features), ref.tg.graph));
    const Tensor& h = tape.value(h_id);

    std::vector<Tape> sub(tasks.size());
    std::vector<AttentionScratch> factors(tasks.size());
    std::vector<Tensor> dense(tasks.size());
    std::vector<TaskGradReduce::Source> sources(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
      const TrainTask& task = tasks[t];
      if (task.train_idx.empty()) continue;
      const auto* attention =
          dynamic_cast<const AttentionTaskHead*>(task.head);
      Tape::VarId in = -1;
      Tape::VarId out = -1;
      if (attention != nullptr) {
        out = attention->ForwardDetached(&sub[t], &h, &task.train_idx,
                                         &factors[t]);
      } else {
        GatherTaskRows(h, task.train_idx, kCols,
                       sub[t].ConstantInPlace(&in, /*wants_grad=*/true));
        out = task.head->Forward(&sub[t], in);
      }
      const Tape::VarId loss =
          task.categorical
              ? sub[t].SoftmaxCrossEntropy(out, &task.train_labels)
              : sub[t].MseLoss(out, &task.train_targets);
      sub[t].BackwardFrom(loss, Tensor::Scalar(1.0f));
      if (attention == nullptr) {
        dense[t] = sub[t].grad(in);
        sources[t].dense = &sub[t].grad(in);
        continue;
      }
      sources[t].attention = &factors[t];
      testing::AttentionReference chain = testing::ReferenceForward(
          h, task.train_idx, factors[t].query, kCols);
      testing::ReferenceBackward(&chain, factors[t].query,
                                 factors[t].ctx_grad);
      EXPECT_TRUE(testing::BitEqual(chain.alpha, factors[t].alpha)) << t;
      EXPECT_TRUE(testing::BitEqual(chain.score_grad, factors[t].score_grad))
          << t;
      dense[t] = chain.v_grad;
    }
    Tensor ref_grad = Tensor::Zeros(h.rows(), h.cols());
    for (size_t t = tasks.size(); t-- > 0;) {
      if (!tasks[t].train_idx.empty()) {
        testing::ReferenceScatter(dense[t], tasks[t].train_idx, &ref_grad);
      }
    }
    std::vector<std::vector<int32_t>> train_idx;
    for (const TrainTask& task : tasks) train_idx.push_back(task.train_idx);
    TaskGradReduce reduce;
    reduce.Build(train_idx, h.rows(), kCols);
    Tensor h_grad = Tensor::Zeros(h.rows(), h.cols());
    reduce.Run(sources, &h_grad);
    EXPECT_TRUE(testing::BitEqual(h_grad, ref_grad));

    tape.BackwardFrom(h_id, ref_grad);
    opt.ClipGradNorm(ref.options.grad_clip);
    opt.Step();

    FullModeFixture fx;
    fx.options.max_epochs = 1;
    std::vector<Parameter*> params;
    fx.CollectParameters(&params);
    std::vector<Tensor> stepped;  // the weights after the epoch's step
    TrainCallbacks callbacks;
    callbacks.on_epoch_end = [&](const EpochStats&) {
      for (const Parameter* p : params) stepped.push_back(p->value);
      return true;
    };
    Trainer trainer(fx.options, fx.store.get(), &fx.features, &fx.gnn,
                    &fx.shared, fx.MakeTasks(), kCols);
    ASSERT_TRUE(trainer.Run(callbacks).ok());
    ASSERT_EQ(stepped.size(), ref_params.size());
    for (size_t i = 0; i < stepped.size(); ++i) {
      EXPECT_TRUE(testing::BitEqual(stepped[i], ref_params[i]->value))
          << params[i]->name;
    }
  }
  SetSimdLevel(level);
}

// A full-mode epoch is attributed by five spans, one of each per epoch:
// the shared forward, the task heads, the indexed gradient reduce, the
// shared backward and the optimizer step. Together they account for
// (nearly) all of grimp.train.
TEST(TrainerTest, FullModeSpansCoverTheTrainSpan) {
  const char* const kLayers[] = {"train.forward", "train.heads",
                                 "train.reduce", "train.backward",
                                 "train.step"};
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::vector<SpanStats> before;
  for (const char* name : kLayers) {
    before.push_back(registry.GetSpanStats(name));
  }
  const SpanStats train_before = registry.GetSpanStats("grimp.train");
  const SpanStats gnn_before = registry.GetSpanStats("gnn.backward");

  // Enough epochs that one scheduler stall between spans cannot eat the
  // 10% margin.
  constexpr int kEpochs = 30;
  FullModeFixture fx;
  fx.options.max_epochs = kEpochs;
  Trainer trainer(fx.options, fx.store.get(), &fx.features, &fx.gnn,
                  &fx.shared, fx.MakeTasks(), FullModeFixture::kCols);
  auto summary = trainer.Run(TrainCallbacks{});
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->epochs_run, kEpochs);

  const SpanStats train_after = registry.GetSpanStats("grimp.train");
  ASSERT_EQ(train_after.count - train_before.count, 1);
  const double train_seconds =
      train_after.total_seconds - train_before.total_seconds;
  double layer_seconds = 0.0;
  double backward_seconds = 0.0;
  for (size_t i = 0; i < std::size(kLayers); ++i) {
    const SpanStats after = registry.GetSpanStats(kLayers[i]);
    EXPECT_EQ(after.count - before[i].count, kEpochs) << kLayers[i];
    layer_seconds += after.total_seconds - before[i].total_seconds;
    if (std::string(kLayers[i]) == "train.backward") {
      backward_seconds = after.total_seconds - before[i].total_seconds;
    }
  }
  // The GNN's share of the shared backward: one span per layer per epoch.
  const SpanStats gnn_after = registry.GetSpanStats("gnn.backward");
  EXPECT_EQ(gnn_after.count - gnn_before.count,
            kEpochs * fx.gnn.num_layers());
  EXPECT_LE(gnn_after.total_seconds - gnn_before.total_seconds,
            backward_seconds);
  EXPECT_GE(layer_seconds, 0.9 * train_seconds)
      << "layers " << layer_seconds << " s of grimp.train " << train_seconds
      << " s";
  EXPECT_LE(layer_seconds, train_seconds);
}

// Full-mode head backward passes run concurrently, each writing its head's
// parameter grads, so the Trainer refuses two tasks borrowing one head.
TEST(TrainerDeathTest, RejectsTasksSharingAHead) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FullModeFixture fx;
  std::vector<TrainTask> tasks = fx.MakeTasks();
  tasks[3].head = tasks[1].head;
  EXPECT_DEATH(Trainer(fx.options, fx.store.get(), &fx.features, &fx.gnn,
                       &fx.shared, std::move(tasks), FullModeFixture::kCols),
               "share one TaskHead");
}

// Full mode moves the tasks' lists into the read set, so a second Run
// would train from empty lists; the Trainer refuses it.
TEST(TrainerDeathTest, RunIsSingleShot) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FullModeFixture fx;
  fx.options.max_epochs = 1;
  Trainer trainer(fx.options, fx.store.get(), &fx.features, &fx.gnn,
                  &fx.shared, fx.MakeTasks(), FullModeFixture::kCols);
  ASSERT_TRUE(trainer.Run(TrainCallbacks{}).ok());
  EXPECT_DEATH((void)trainer.Run(TrainCallbacks{}), "single-shot");
}

// The store decides where the adjacency lives, never what a Fit computes.
// At identical options the sample cap alone picks the corpus
// (BuildTrainingCorpus), the sampler draws the same blocks from every
// store, and sampled validation is the same minibatched pass on every
// store (trainer.h). So an in-memory Fit, one spilled shard and four
// shards under an evicting budget run bit-identically, with and without a
// cap and with and without validation: every epoch's training and
// validation loss, the epoch early stopping ends on, and every imputed
// cell (from the restored weights).
TEST(TrainerTest, FitIsBitIdenticalAcrossStores) {
  const Table clean = StructuredTable(240);
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 23);
  struct Store {
    const char* name;
    ShardMode mode;
    int num_shards;
    int64_t budget;
  };
  const GraphConfig defaults;
  const Store stores[] = {
      {"in-memory", ShardMode::kInMemory, 0, defaults.max_resident_bytes},
      {"1 shard", ShardMode::kSharded, 1, defaults.max_resident_bytes},
      {"4 shards", ShardMode::kSharded, 4, 1ll << 14},  // forces eviction
  };
  struct RunOutput {
    std::vector<double> train_losses;
    std::vector<double> val_losses;
    int epochs_run = 0;
    std::string cells;
    double accuracy = 0.0;
  };
  const Counter& fetches =
      MetricsRegistry::Global().GetCounter("graph.shard.fetches");
  auto run = [&](const Store& store, int64_t cap, double validation_fraction,
                 int epochs) {
    GrimpOptions options;
    options.dim = 16;
    options.seed = 5;
    options.max_epochs = epochs;
    // With validation, early stopping picks the last epoch.
    options.patience = validation_fraction > 0.0 ? 2 : epochs;
    options.validation_fraction = validation_fraction;
    options.max_samples_per_task = cap;
    options.train.mode = TrainMode::kSampled;
    options.train.batch_size = 32;
    options.train.fanouts = {4, 4};
    options.graph.shard_mode = store.mode;
    options.graph.num_shards = store.num_shards;
    options.graph.max_resident_bytes = store.budget;
    RunOutput out;
    options.callbacks.on_epoch_end = [&out](const EpochStats& stats) {
      out.train_losses.push_back(stats.train_loss);
      out.val_losses.push_back(stats.val_loss);
      return true;
    };
    const int64_t fetches_before = fetches.value();
    GrimpEngine engine(options);
    EXPECT_TRUE(engine.Fit(corrupted.dirty).ok());
    out.epochs_run = engine.summary().epochs_run;
    if (store.mode == ShardMode::kSharded) {
      // The sharded Fit really went through the out-of-core path.
      EXPECT_GT(fetches.value(), fetches_before);
    }
    auto imputed = TransformCopy(engine, corrupted.dirty);
    EXPECT_TRUE(imputed.ok());
    if (imputed.ok()) {
      out.cells = ExactCells(*imputed);
      out.accuracy = ScoreImputation(*imputed, corrupted, clean).Accuracy();
    }
    return out;
  };
  for (const int64_t cap : {int64_t{0}, int64_t{40}}) {
    for (const double validation_fraction : {0.0, 0.2}) {
      SCOPED_TRACE("cap " + std::to_string(cap) + ", validation " +
                   std::to_string(validation_fraction));
      const bool validates = validation_fraction > 0.0;
      const int epochs = validates ? 20 : 60;
      const RunOutput memory = run(stores[0], cap, validation_fraction, epochs);
      if (validates) {
        // Early stopping ends the run, on the same epoch for every store.
        EXPECT_LT(memory.epochs_run, epochs);
      } else {
        EXPECT_EQ(memory.epochs_run, epochs);
        EXPECT_GT(memory.accuracy, 0.7);
      }
      ASSERT_EQ(memory.train_losses.size(),
                static_cast<size_t>(memory.epochs_run));
      for (const Store& store : {stores[1], stores[2]}) {
        SCOPED_TRACE(store.name);
        const RunOutput other = run(store, cap, validation_fraction, epochs);
        EXPECT_EQ(other.epochs_run, memory.epochs_run);
        ASSERT_EQ(other.train_losses.size(), memory.train_losses.size());
        for (size_t e = 0; e < memory.train_losses.size(); ++e) {
          EXPECT_EQ(other.train_losses[e], memory.train_losses[e])
              << "epoch " << e;
          EXPECT_EQ(other.val_losses[e], memory.val_losses[e])
              << "epoch " << e;
        }
        EXPECT_EQ(other.cells, memory.cells);
      }
    }
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
