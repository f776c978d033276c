#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/mean_mode.h"
#include "common/binary_io.h"
#include "core/engine.h"
#include "core/grimp.h"
#include "core/names.h"
#include "data/datasets.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "exact_cells.h"

namespace grimp {
namespace {

// Structured table: b and num are functions of a.
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

GrimpOptions FastOptions() {
  GrimpOptions options;
  options.dim = 16;
  options.shared_hidden = 32;
  options.max_epochs = 50;
  options.seed = 21;
  return options;
}

TEST(GrimpTest, FillsEveryMissingCell) {
  Table clean = StructuredTable(80);
  const CorruptedTable corrupted = InjectMcar(clean, 0.3, 1);
  GrimpImputer grimp(FastOptions());
  auto imputed = grimp.Impute(corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  EXPECT_DOUBLE_EQ(imputed->MissingFraction(), 0.0);
  EXPECT_GT(grimp.summary().epochs_run, 0);
  EXPECT_GE(grimp.summary().steps_run, grimp.summary().epochs_run);
  EXPECT_GT(grimp.summary().num_parameters, 0);
  EXPECT_GT(grimp.summary().num_train_samples, 0);
  EXPECT_GT(grimp.summary().num_val_samples, 0);
}

TEST(GrimpTest, RecoversDeterministicStructure) {
  Table clean = StructuredTable(120);
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 2);
  GrimpImputer grimp(FastOptions());
  const RunResult rr = RunAlgorithm(clean, corrupted, &grimp);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_GT(rr.score.Accuracy(), 0.8);
}

TEST(GrimpTest, BeatsModeImputationOnClusteredData) {
  auto clean_or = GenerateDatasetByName("contraceptive", 5, 250);
  ASSERT_TRUE(clean_or.ok());
  const CorruptedTable corrupted = InjectMcar(*clean_or, 0.2, 3);
  GrimpImputer grimp(FastOptions());
  MeanModeImputer mode;
  const RunResult g = RunAlgorithm(*clean_or, corrupted, &grimp);
  const RunResult m = RunAlgorithm(*clean_or, corrupted, &mode);
  ASSERT_TRUE(g.status.ok());
  EXPECT_GT(g.score.Accuracy(), m.score.Accuracy());
}

TEST(GrimpTest, DeterministicForSeed) {
  Table clean = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 4);
  GrimpOptions options = FastOptions();
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

TEST(GrimpTest, NamesReflectConfiguration) {
  GrimpOptions options;
  EXPECT_EQ(GrimpImputer(options).name(), "GRIMP-FT");
  options.features = FeatureInitKind::kEmbdi;
  EXPECT_EQ(GrimpImputer(options).name(), "GRIMP-E");
  options.features = FeatureInitKind::kRandom;
  EXPECT_EQ(GrimpImputer(options).name(), "GRIMP-R");
  options.features = FeatureInitKind::kEmbdi;
  options.task_kind = TaskKind::kLinear;
  EXPECT_EQ(GrimpImputer(options).name(), "GRIMP-E-Lin");
  options.task_kind = TaskKind::kAttention;
  options.multi_task = false;
  EXPECT_EQ(GrimpImputer(options).name(), "GNN-MC");
  options.use_gnn = false;
  EXPECT_EQ(GrimpImputer(options).name(), "EmbDI-MC");
}

TEST(GrimpTest, RejectsEmptyTable) {
  Table empty;
  GrimpImputer grimp(FastOptions());
  EXPECT_FALSE(grimp.Impute(empty).ok());
}

TEST(GrimpOptionsTest, ValidateAcceptsDefaultsAndZeroValidation) {
  EXPECT_TRUE(GrimpOptions{}.Validate().ok());
  GrimpOptions options = FastOptions();
  options.validation_fraction = 0.0;  // "no validation" must stay legal
  EXPECT_TRUE(options.Validate().ok());
}

TEST(GrimpOptionsTest, ValidateRejectsEachBadField) {
  const auto rejects = [](void (*corrupt)(GrimpOptions*)) {
    GrimpOptions options;
    corrupt(&options);
    const Status status = options.Validate();
    EXPECT_FALSE(status.ok());
    return !status.ok();
  };
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->dim = 0; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->dim = -4; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->shared_hidden = 0; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->task_hidden = -1; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->gnn_layers = 0; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->max_epochs = 0; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->patience = -1; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->validation_fraction = -0.1; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->validation_fraction = 1.0; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->learning_rate = 0.0f; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->learning_rate = -1e-3f; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->grad_clip = -1.0f; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->focal_gamma = -0.5f; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->graph.neighbor_cap = -1; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->graph.num_shards = -3; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) {
    o->graph.shard_mode = ShardMode::kSharded;
    o->graph.max_resident_bytes = 0;
  }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->max_samples_per_task = -1; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->num_threads = -2; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) {
    o->k_strategy = KStrategy::kWeakDiagonalFd;  // with empty fds
  }));
  // Minibatch training combos.
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->train.batch_size = -1; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) {
    o->train.mode = TrainMode::kSampled;
    o->train.batch_size = 0;
  }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) {
    o->train.mode = TrainMode::kSampled;
    o->use_gnn = false;  // nothing to sample without message passing
  }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) {
    o->train.mode = TrainMode::kSampled;
    o->train.fanouts = {8, 0};  // fanout 0 would silence a layer
  }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) {
    o->train.fanouts = {8};  // size must match gnn_layers (2)
  }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) { o->train.pipeline_depth = -1; }));
  EXPECT_TRUE(rejects([](GrimpOptions* o) {
    o->train.pipeline_depth = TrainConfig::kMaxPipelineDepth + 1;
  }));
  GrimpOptions too_deep;
  too_deep.train.pipeline_depth = TrainConfig::kMaxPipelineDepth + 1;
  EXPECT_NE(too_deep.Validate().message().find("train.pipeline_depth"),
            std::string::npos);
  // Fanouts are legal in full mode (ignored) as long as they are shaped
  // correctly, and legal in sampled mode when positive; the deepest
  // pipeline is legal too.
  GrimpOptions sampled;
  sampled.train.mode = TrainMode::kSampled;
  sampled.train.fanouts = {8, 8};
  sampled.train.pipeline_depth = TrainConfig::kMaxPipelineDepth;
  EXPECT_TRUE(sampled.Validate().ok());
}

TEST(GrimpOptionsTest, ImputerRejectsShardedStorage) {
  // The one-shot imputer's decode step is a whole-graph forward, which a
  // sharded store cannot serve by design; GrimpEngine owns that regime.
  GrimpOptions options = FastOptions();
  options.train.mode = TrainMode::kSampled;
  options.train.fanouts = {2, 2};
  options.graph.shard_mode = ShardMode::kSharded;
  GrimpImputer grimp(options);
  Table clean = StructuredTable(30);
  const auto result = grimp.Impute(clean);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(GrimpOptionsTest, ImputeReturnsInvalidArgumentForBadOptions) {
  GrimpOptions options = FastOptions();
  options.dim = -1;
  GrimpImputer grimp(options);
  Table clean = StructuredTable(30);
  const auto result = grimp.Impute(clean);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GrimpOptionsTest, EnumNamesRoundTripThroughParse) {
  for (TaskKind kind : {TaskKind::kLinear, TaskKind::kAttention}) {
    auto parsed = ParseTaskKind(TaskKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  for (KStrategy strategy :
       {KStrategy::kDiagonal, KStrategy::kTargetColumn,
        KStrategy::kWeakDiagonal, KStrategy::kWeakDiagonalFd}) {
    auto parsed = ParseKStrategy(KStrategyName(strategy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, strategy);
  }
  for (TrainMode mode : {TrainMode::kFull, TrainMode::kSampled}) {
    auto parsed = ParseTrainMode(TrainModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(ParseTaskKind("mlp").ok());
  EXPECT_FALSE(ParseKStrategy("dense").ok());
  EXPECT_FALSE(ParseTrainMode("minibatch").ok());
}

TEST(GrimpTest, CallbacksFireOncePerEpoch) {
  Table clean = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 11);
  GrimpOptions options = FastOptions();
  options.max_epochs = 8;
  std::vector<EpochStats> seen;
  options.callbacks.on_epoch_end = [&seen](const EpochStats& stats) {
    seen.push_back(stats);
    return true;
  };
  GrimpImputer grimp(options);
  ASSERT_TRUE(grimp.Impute(corrupted.dirty).ok());
  ASSERT_EQ(static_cast<int>(seen.size()), grimp.summary().epochs_run);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].epoch, static_cast<int>(i));
    EXPECT_TRUE(seen[i].has_val);
    EXPECT_GT(seen[i].train_loss, 0.0);
    EXPECT_GE(seen[i].seconds, 0.0);
  }
}

TEST(GrimpTest, CallbackCanStopTraining) {
  Table clean = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 12);
  GrimpOptions options = FastOptions();
  options.max_epochs = 40;
  options.callbacks.on_epoch_end = [](const EpochStats& stats) {
    return stats.epoch < 2;  // run epochs 0, 1, 2 then stop
  };
  GrimpImputer grimp(options);
  auto imputed = grimp.Impute(corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  EXPECT_EQ(grimp.summary().epochs_run, 3);
  EXPECT_DOUBLE_EQ(imputed->MissingFraction(), 0.0);
}

TEST(GrimpTest, CallbacksDoNotPerturbResults) {
  Table clean = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 13);
  GrimpOptions options = FastOptions();
  options.max_epochs = 15;
  GrimpImputer plain(options);
  options.callbacks.on_epoch_end = [](const EpochStats&) { return true; };
  GrimpImputer observed(options);
  auto ia = plain.Impute(corrupted.dirty);
  auto ib = observed.Impute(corrupted.dirty);
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  for (const CellRef& cell : corrupted.missing_cells) {
    EXPECT_EQ(ia->column(cell.col).StringAt(cell.row),
              ib->column(cell.col).StringAt(cell.row));
  }
}

// Checksum64 of every cell string in row-major order, each cell followed
// by a unit separator: equal digests mean equal imputed tables.
uint64_t CellDigest(const Table& table) {
  std::string cells;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_cols(); ++c) {
      cells += table.column(c).StringAt(r);
      cells += '\x1f';
    }
  }
  return Checksum64::Of(cells.data(), cells.size());
}

class GrimpConfigTest : public ::testing::TestWithParam<int> {};

// Every ablation / head / feature configuration must run end-to-end, fill
// all cells and impute exactly the pinned table. The scalar SIMD tier keeps
// the digests independent of the host CPU; they hold at any thread count.
TEST_P(GrimpConfigTest, RunsEndToEnd) {
  GrimpOptions options = FastOptions();
  options.max_epochs = 10;
  options.simd = "scalar";
  switch (GetParam()) {
    case 0:
      options.task_kind = TaskKind::kLinear;
      break;
    case 1:
      options.use_gnn = false;
      break;
    case 2:
      options.multi_task = false;
      break;
    case 3:
      options.use_gnn = false;
      options.multi_task = false;
      break;
    case 4:
      options.features = FeatureInitKind::kEmbdi;
      break;
    case 5:
      options.features = FeatureInitKind::kRandom;
      break;
    case 6:
      options.k_strategy = KStrategy::kDiagonal;
      break;
    case 7:
      options.k_strategy = KStrategy::kTargetColumn;
      break;
    case 8:
      options.focal_gamma = 2.0f;
      break;
    case 10:
      options.k_strategy = KStrategy::kWeakDiagonalFd;
      options.fds = {{{0}, 1}};
      break;
    default:  // 9: the defaults
      break;
  }
  Table clean = StructuredTable(50);
  const CorruptedTable corrupted = InjectMcar(clean, 0.3, 5);
  GrimpImputer grimp(options);
  auto imputed = grimp.Impute(corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  EXPECT_DOUBLE_EQ(imputed->MissingFraction(), 0.0);
  constexpr uint64_t kDigests[] = {
      0x1db4cc6350b02ea9ULL, 0x8b84446075907c0dULL, 0x4753d5d79143e854ULL,
      0xefc786c0e268c7a2ULL, 0x122484b92b7db4cfULL, 0x3d7688a168e6540eULL,
      0xad2757e9c70ebb91ULL, 0xdf6425bf5bec4864ULL, 0xfa1d92299453e5a5ULL,
      0xd99985d700b8d5d4ULL, 0x30a1e43fabb0a0e2ULL};
  EXPECT_EQ(CellDigest(*imputed), kDigests[GetParam()])
      << "config " << GetParam() << " digest 0x" << std::hex
      << CellDigest(*imputed);
}

INSTANTIATE_TEST_SUITE_P(Configs, GrimpConfigTest, ::testing::Range(0, 11));

// Inductive pins: what batch TransformMany and AttentionSummary compute
// from one fitted engine, held like GrimpConfigTest's digests at the
// scalar SIMD tier (ctest reruns them on one thread). The fit runs on a
// contraceptive replica; the inputs are unseen replicas with 25% MCAR
// gaps.
std::unique_ptr<GrimpEngine> PinnedInductiveEngine() {
  GrimpOptions options = FastOptions();
  options.max_epochs = 10;
  options.simd = "scalar";
  auto engine = std::make_unique<GrimpEngine>(options);
  auto source = GenerateDatasetByName("contraceptive", 3, 120);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  const Status fit = engine->Fit(InjectMcar(*source, 0.2, 4).dirty);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  return engine;
}

Table UnseenTable(uint64_t seed, int64_t rows) {
  auto clean = GenerateDatasetByName("contraceptive", seed, rows);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  return InjectMcar(*clean, 0.25, seed + 10).dirty;
}

TEST(InductivePinTest, BatchTransformManyDigest) {
  const std::unique_ptr<GrimpEngine> engine = PinnedInductiveEngine();
  std::vector<Table> tables = {UnseenTable(5, 40), UnseenTable(6, 25),
                               UnseenTable(7, 60)};
  std::vector<Table*> batch;
  for (Table& t : tables) batch.push_back(&t);
  ASSERT_TRUE(engine->TransformMany(batch).ok());
  std::string cells;
  for (const Table& t : tables) {
    EXPECT_DOUBLE_EQ(t.MissingFraction(), 0.0);
    cells += ExactCells(t);
  }
  const uint64_t digest = Checksum64::Of(cells.data(), cells.size());
  EXPECT_EQ(digest, 0xa11d8e9adeda3387ULL)
      << "digest 0x" << std::hex << digest;
}

TEST(InductivePinTest, AttentionSummaryMatrix) {
  const std::unique_ptr<GrimpEngine> engine = PinnedInductiveEngine();
  auto summary = engine->AttentionSummary(UnseenTable(8, 60));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  std::string matrix;
  char hex[32];
  for (int64_t r = 0; r < summary->rows(); ++r) {
    for (int64_t c = 0; c < summary->cols(); ++c) {
      std::snprintf(hex, sizeof(hex), "%a ", summary->at(r, c));
      matrix += hex;
    }
    matrix += '\n';
  }
  const uint64_t digest = Checksum64::Of(matrix.data(), matrix.size());
  EXPECT_EQ(digest, 0xeafda33c35028377ULL)
      << "digest 0x" << std::hex << digest << "\n" << matrix;
}

TEST(GrimpTest, FdStrategyConsumesFds) {
  Table clean = StructuredTable(100);
  const CorruptedTable corrupted = InjectMcar(clean, 0.25, 6);
  GrimpOptions options = FastOptions();
  options.k_strategy = KStrategy::kWeakDiagonalFd;
  options.fds = {{{0}, 1}};
  GrimpImputer grimp(options);
  EXPECT_EQ(grimp.name(), "GRIMP-FT-A(FD)");
  const RunResult rr = RunAlgorithm(clean, corrupted, &grimp);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_GT(rr.score.Accuracy(), 0.7);
}

TEST(GrimpTest, RejectsOutOfRangeFdColumns) {
  const CorruptedTable corrupted = InjectMcar(StructuredTable(40), 0.25, 6);
  GrimpOptions options = FastOptions();
  options.k_strategy = KStrategy::kWeakDiagonalFd;
  options.fds = {{{0}, 7}};
  GrimpImputer grimp(options);
  auto imputed = grimp.Impute(corrupted.dirty);
  ASSERT_FALSE(imputed.ok());
  EXPECT_EQ(imputed.status().code(), StatusCode::kInvalidArgument);
}

TEST(GrimpTest, HighMissingnessStillFillsEverything) {
  Table clean = StructuredTable(100);
  const CorruptedTable corrupted = InjectMcar(clean, 0.5, 7);
  GrimpImputer grimp(FastOptions());
  auto imputed = grimp.Impute(corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  EXPECT_DOUBLE_EQ(imputed->MissingFraction(), 0.0);
}

TEST(GrimpTest, RobustToTypos) {
  // §4.2 noise experiment shape: accuracy drops only mildly with typos.
  Table clean = StructuredTable(120);
  const Table noisy = InjectTypos(clean, 0.1, 8);
  const CorruptedTable corrupted = InjectMcar(noisy, 0.1, 9);
  GrimpImputer grimp(FastOptions());
  const RunResult rr = RunAlgorithm(noisy, corrupted, &grimp);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_GT(rr.score.Accuracy(), 0.6);
}

}  // namespace
}  // namespace grimp
