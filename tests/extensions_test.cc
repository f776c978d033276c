// Tests for the paper's §7 extension features: MNAR injection, the MICE /
// MIDA related-work baselines, hyperparameter tuning, graph pruning,
// training-data reduction, and the inductive Fit/Transform engine.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/featurize.h"
#include "baselines/mice.h"
#include "baselines/mida.h"
#include "core/engine.h"
#include "core/tuner.h"
#include "data/datasets.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "graph/builder.h"
#include "common/string_util.h"
#include "transform_copy.h"

namespace grimp {
namespace {

Table StructuredTable(int64_t rows) {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical},
                 {"num", AttrType::kNumerical}});
  Table t(schema);
  for (int64_t i = 0; i < rows; ++i) {
    const int a = static_cast<int>(i % 4);
    EXPECT_TRUE(t.AppendRow({"alpha" + std::to_string(a),
                             "beta" + std::to_string(a % 2),
                             std::to_string(10 * a)})
                    .ok());
  }
  return t;
}

// --- MNAR ------------------------------------------------------------------

TEST(MnarTest, OverallRateApproximatesTarget) {
  auto clean = GenerateDatasetByName("flare", 3, 2000);
  ASSERT_TRUE(clean.ok());
  const CorruptedTable mnar = InjectMnar(*clean, 0.2, 0.8, 5);
  EXPECT_NEAR(mnar.dirty.MissingFraction(), 0.2, 0.04);
}

TEST(MnarTest, RareValuesGoMissingMoreOften) {
  // Column with an 80/20 split: under MNAR with strong bias, the rare
  // value's missingness rate must exceed the frequent value's.
  Schema schema({{"c", AttrType::kCategorical}});
  Table t(schema);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(t.AppendRow({i % 5 == 0 ? "rare" : "common"}).ok());
  }
  const CorruptedTable mnar = InjectMnar(t, 0.2, 1.0, 9);
  int64_t rare_missing = 0, common_missing = 0;
  for (size_t i = 0; i < mnar.missing_cells.size(); ++i) {
    const std::string& truth =
        t.column(0).StringAt(mnar.missing_cells[i].row);
    (truth == "rare" ? rare_missing : common_missing)++;
  }
  const double rare_rate = static_cast<double>(rare_missing) / 800.0;
  const double common_rate = static_cast<double>(common_missing) / 3200.0;
  EXPECT_GT(rare_rate, common_rate * 1.5);
}

TEST(MnarTest, ExtremeNumericValuesGoMissingMoreOften) {
  Schema schema({{"n", AttrType::kNumerical}});
  Table t(schema);
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(t.AppendRow({FormatDouble(rng.NextGaussian(), 3)}).ok());
  }
  const CorruptedTable mnar = InjectMnar(t, 0.2, 1.0, 11);
  double missing_abs = 0.0;
  for (const CellRef& cell : mnar.missing_cells) {
    missing_abs += std::fabs(t.column(0).NumAt(cell.row));
  }
  missing_abs /= static_cast<double>(mnar.missing_cells.size());
  // Mean |z| of a standard normal is ~0.8; the missing subset must skew
  // higher.
  EXPECT_GT(missing_abs, 0.9);
}

TEST(MnarTest, ZeroBiasIsRejectedAndGroundTruthConsistent) {
  Table t = StructuredTable(50);
  const CorruptedTable mnar = InjectMnar(t, 0.3, 0.5, 1);
  for (size_t i = 0; i < mnar.missing_cells.size(); ++i) {
    const CellRef cell = mnar.missing_cells[i];
    EXPECT_TRUE(mnar.dirty.IsMissing(cell.row, cell.col));
    EXPECT_EQ(mnar.original_codes[i],
              t.column(cell.col).CodeAt(cell.row));
  }
}

// --- MICE / MIDA -------------------------------------------------------------

TEST(MiceTest, RecoversStructuredCells) {
  Table clean = StructuredTable(150);
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 7);
  MiceImputer mice;
  Table imputed;
  const RunResult rr = RunAlgorithm(clean, corrupted, &mice, &imputed);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_DOUBLE_EQ(imputed.MissingFraction(), 0.0);
  EXPECT_GT(rr.score.Accuracy(), 0.8);
}

TEST(MiceTest, HandlesHighCardinalityViaOtherBucket) {
  auto clean = GenerateDatasetByName("imdb", 3, 120);
  ASSERT_TRUE(clean.ok());
  const CorruptedTable corrupted = InjectMcar(*clean, 0.2, 9);
  MiceOptions options;
  options.rounds = 1;
  options.steps_per_model = 20;
  MiceImputer mice(options);
  auto imputed = mice.Impute(corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  EXPECT_DOUBLE_EQ(imputed->MissingFraction(), 0.0);
}

TEST(MidaTest, FillsAllAndBeatsChance) {
  Table clean = StructuredTable(200);
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 11);
  MidaImputer mida;
  Table imputed;
  const RunResult rr = RunAlgorithm(clean, corrupted, &mida, &imputed);
  ASSERT_TRUE(rr.status.ok());
  EXPECT_DOUBLE_EQ(imputed.MissingFraction(), 0.0);
  // 4- and 2-value columns: chance is ~0.375 on average.
  EXPECT_GT(rr.score.Accuracy(), 0.55);
}

TEST(MidaTest, RejectsEmptyTable) {
  Table empty;
  EXPECT_FALSE(MidaImputer().Impute(empty).ok());
  EXPECT_FALSE(MiceImputer().Impute(empty).ok());
}

// --- One-hot plan --------------------------------------------------------------

TEST(FeaturizeTest, PlanCapsWidthAndDecodes) {
  Column col(Field{"c", AttrType::kCategorical});
  for (int i = 0; i < 100; ++i) {
    col.AppendCategorical("v" + std::to_string(i % 10));
  }
  const OneHotPlan plan = PlanOneHot(col, 4);
  EXPECT_EQ(plan.width, 4);  // 3 direct + other
  // Every live code maps to a slot; slots decode to live codes.
  for (int32_t code = 0; code < col.dict().size(); ++code) {
    const int slot = plan.slot_of_code[static_cast<size_t>(code)];
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, plan.width);
  }
  for (int32_t code : plan.code_of_slot) {
    EXPECT_GT(col.dict().CountOf(code), 0);
  }
}

TEST(FeaturizeTest, SmallDomainGetsNoOtherBucket) {
  Column col(Field{"c", AttrType::kCategorical});
  col.AppendCategorical("x");
  col.AppendCategorical("y");
  const OneHotPlan plan = PlanOneHot(col, 8);
  EXPECT_EQ(plan.width, 2);
}

// --- Tuner ---------------------------------------------------------------------

TEST(TunerTest, PicksAConfigurationAndRanksTrials) {
  Table clean = StructuredTable(100);
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 13);
  TunerOptions tuner;
  tuner.dims = {8};
  tuner.task_kinds = {TaskKind::kAttention, TaskKind::kLinear};
  tuner.features = {FeatureInitKind::kNgram};
  tuner.max_epochs = 10;
  auto report = TuneGrimp(corrupted.dirty, tuner);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->trials.size(), 2u);
  EXPECT_GE(report->best_score, 0.0);
  for (const TunerTrial& trial : report->trials) {
    EXPECT_LE(trial.score, report->best_score);
  }
  // Winning config gets the full default budget back.
  EXPECT_EQ(report->best.max_epochs, GrimpOptions().max_epochs);
  EXPECT_FALSE(DescribeOptions(report->best).empty());
}

TEST(TunerTest, RejectsBadAxes) {
  Table clean = StructuredTable(30);
  TunerOptions tuner;
  tuner.dims = {};
  EXPECT_FALSE(TuneGrimp(clean, tuner).ok());
  TunerOptions bad_holdout;
  bad_holdout.holdout_fraction = 0.0;
  EXPECT_FALSE(TuneGrimp(clean, bad_holdout).ok());
}

// --- Efficiency knobs -------------------------------------------------------

TEST(EfficiencyTest, NeighborCapBoundsDegrees) {
  auto clean = GenerateDatasetByName("flare", 3, 300);
  ASSERT_TRUE(clean.ok());
  GraphBuildOptions options;
  options.max_neighbors_per_node = 8;
  options.seed = 1;
  const TableGraph tg = BuildTableGraph(*clean, {}, options);
  for (int t = 0; t < tg.graph.num_edge_types(); ++t) {
    for (int64_t v = 0; v < tg.graph.num_nodes(); ++v) {
      EXPECT_LE(tg.graph.adjacency(t).Degree(v), 8);
    }
  }
}

TEST(EfficiencyTest, PrunedAndCappedGrimpStillAccurate) {
  Table clean = StructuredTable(150);
  const CorruptedTable corrupted = InjectMcar(clean, 0.2, 15);
  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 40;
  options.graph.neighbor_cap = 10;
  options.max_samples_per_task = 60;
  GrimpImputer grimp(options);
  const RunResult rr = RunAlgorithm(clean, corrupted, &grimp);
  ASSERT_TRUE(rr.status.ok());
  // Post-cap count: at most max_samples_per_task per column task.
  EXPECT_LE(grimp.summary().num_train_samples, 60 * clean.num_cols());
  EXPECT_GT(grimp.summary().num_train_samples, 0);
  EXPECT_GT(rr.score.Accuracy(), 0.7);
}

// --- Inductive engine (Fit / TransformMany) ---------------------------------

TEST(EngineTest, TransformMatchesSchemaChecks) {
  Table source = StructuredTable(100);
  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 20;
  GrimpEngine engine(options);
  EXPECT_FALSE(TransformCopy(engine, source).ok());  // not fitted yet
  ASSERT_TRUE(engine.Fit(source).ok());
  EXPECT_TRUE(engine.fitted());

  Schema other({{"x", AttrType::kCategorical}});
  Table wrong(other);
  ASSERT_TRUE(wrong.AppendRow({"v"}).ok());
  EXPECT_FALSE(TransformCopy(engine, wrong).ok());
}

TEST(EngineTest, RejectsNonNgramFeatures) {
  GrimpOptions options;
  options.features = FeatureInitKind::kEmbdi;
  GrimpEngine engine(options);
  EXPECT_FALSE(engine.Fit(StructuredTable(30)).ok());
}

TEST(EngineTest, ImputesUnseenTableWithSharedSchema) {
  // Train on one sample of the distribution, impute a *different* sample:
  // the inductive reuse of §7. Shared schema, disjoint rows.
  Table source = StructuredTable(160);
  Table target_clean(source.schema());
  for (int64_t i = 0; i < 80; ++i) {
    const int a = static_cast<int>((i + 1) % 4);  // shifted phase
    ASSERT_TRUE(target_clean
                    .AppendRow({"alpha" + std::to_string(a),
                                "beta" + std::to_string(a % 2),
                                std::to_string(10 * a)})
                    .ok());
  }
  const CorruptedTable corrupted = InjectMcar(target_clean, 0.25, 17);

  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 60;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(source).ok());
  auto imputed = TransformCopy(engine, corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  const ImputationScore score =
      ScoreImputation(*imputed, corrupted, target_clean);
  // Zero-shot transfer must beat random guessing (chance ~0.375) clearly.
  EXPECT_GT(score.Accuracy(), 0.6);
  // And every categorical fill must decode to a source-domain value.
  for (const CellRef& cell : corrupted.missing_cells) {
    const Column& col = imputed->column(cell.col);
    if (!col.is_categorical() || col.IsMissing(cell.row)) continue;
    EXPECT_GE(source.column(cell.col).dict().Find(col.StringAt(cell.row)), 0);
  }
}

TEST(EngineTest, TransformOnTrainingTableWorks) {
  Table source = StructuredTable(120);
  const CorruptedTable corrupted = InjectMcar(source, 0.2, 19);
  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 40;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(corrupted.dirty).ok());
  auto imputed = TransformCopy(engine, corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  const ImputationScore score = ScoreImputation(*imputed, corrupted, source);
  EXPECT_GT(score.Accuracy(), 0.75);
}

// --- Transductive FitImpute -------------------------------------------------

// FitImpute accepts what inductive use cannot (EmbDI/random features, the
// multi_task=false head), and the resulting model refuses inductive calls.
TEST(EngineTest, FitImputeModelRefusesInductiveCalls) {
  Table source = StructuredTable(60);
  const CorruptedTable corrupted = InjectMcar(source, 0.2, 29);
  for (int config = 0; config < 2; ++config) {
    GrimpOptions options;
    options.dim = 16;
    options.max_epochs = 5;
    if (config == 0) {
      options.features = FeatureInitKind::kEmbdi;
    } else {
      options.multi_task = false;
    }
    GrimpEngine engine(options);
    auto imputed = engine.FitImpute(corrupted.dirty);
    ASSERT_TRUE(imputed.ok()) << imputed.status().ToString();
    EXPECT_DOUBLE_EQ(imputed->MissingFraction(), 0.0);
    EXPECT_TRUE(engine.fitted());

    Table request = corrupted.dirty;
    Table* one[] = {&request};
    EXPECT_EQ(engine.TransformMany(one).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine.Save(::testing::TempDir() + "/grimp_transductive.bin")
                  .code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(EngineTest, FitImputeRejectsShardedStorage) {
  GrimpOptions options;
  options.dim = 16;
  options.train.mode = TrainMode::kSampled;
  options.graph.shard_mode = ShardMode::kSharded;
  GrimpEngine engine(options);
  auto imputed = engine.FitImpute(StructuredTable(40));
  ASSERT_FALSE(imputed.ok());
  EXPECT_EQ(imputed.status().code(), StatusCode::kFailedPrecondition);
}

// FD columns outside the schema would index past the attention head's
// K diagonal; Fit rejects them before building any head.
TEST(EngineTest, FitRejectsOutOfRangeFdColumns) {
  for (const FunctionalDependency& fd :
       {FunctionalDependency{{0}, 3}, FunctionalDependency{{-1}, 1}}) {
    GrimpOptions options;
    options.dim = 16;
    options.max_epochs = 5;
    options.k_strategy = KStrategy::kWeakDiagonalFd;
    options.fds = {fd};
    GrimpEngine engine(options);
    const Status status = engine.Fit(StructuredTable(40));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

// --- Out-of-core sharded training -----------------------------------------

TEST(EngineTest, ShardedFitRequiresSampledTraining) {
  GrimpOptions options;
  options.dim = 16;
  options.graph.shard_mode = ShardMode::kSharded;  // train.mode stays kFull
  GrimpEngine engine(options);
  const Status status = engine.Fit(StructuredTable(40));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}


// --- Attention introspection --------------------------------------------------

TEST(AttentionSummaryTest, RowsAreDistributionsOverColumns) {
  Table clean = StructuredTable(120);
  const CorruptedTable corrupted = InjectMcar(clean, 0.3, 23);
  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 30;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(corrupted.dirty).ok());
  auto summary_or = engine.AttentionSummary(corrupted.dirty);
  ASSERT_TRUE(summary_or.ok()) << summary_or.status().ToString();
  const Tensor& summary = *summary_or;
  ASSERT_EQ(summary.rows(), clean.num_cols());
  ASSERT_EQ(summary.cols(), clean.num_cols());
  for (int64_t t = 0; t < summary.rows(); ++t) {
    float row_sum = 0.0f;
    for (int64_t c = 0; c < summary.cols(); ++c) {
      EXPECT_GE(summary.at(t, c), 0.0f);
      row_sum += summary.at(t, c);
    }
    // Tasks with imputed cells have a softmax-normalized mean row.
    if (row_sum > 0.0f) {
      EXPECT_NEAR(row_sum, 1.0f, 1e-4f);
    }
  }
}

TEST(AttentionSummaryTest, RequiresAttentionTasks) {
  Table clean = StructuredTable(40);
  GrimpOptions options;
  options.dim = 8;
  options.max_epochs = 3;
  options.task_kind = TaskKind::kLinear;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(clean).ok());
  EXPECT_FALSE(engine.AttentionSummary(clean).ok());
}

}  // namespace
}  // namespace grimp
