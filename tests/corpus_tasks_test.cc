#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/corpus.h"
#include "core/tasks.h"
#include "tensor/optimizer.h"

namespace grimp {
namespace {

Table CorpusTable() {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical},
                 {"c", AttrType::kCategorical}});
  Table t(schema);
  // Row 0: all present (K=3 samples). Row 1: one missing (K=2).
  // Row 2: all missing (K=0).
  EXPECT_TRUE(t.AppendRow({"x", "y", "z"}).ok());
  EXPECT_TRUE(t.AppendRow({"x", "", "z"}).ok());
  EXPECT_TRUE(t.AppendRow({"", "", ""}).ok());
  return t;
}

TEST(CorpusTest, OneSamplePerPresentCell) {
  Table t = CorpusTable();
  Rng rng(1);
  TrainingCorpus corpus = BuildTrainingCorpus(t, 0.0, 0, &rng);
  EXPECT_EQ(corpus.TotalSamples(), 5);  // paper Fig. 4: K per tuple
  EXPECT_TRUE(corpus.validation.empty());
  // No sample may target a missing cell.
  for (const TrainingSample& s : corpus.train) {
    EXPECT_FALSE(t.IsMissing(s.row, s.target_col));
  }
}

TEST(CorpusTest, ValidationSplitFraction) {
  Schema schema({{"a", AttrType::kCategorical}});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.AppendRow({"v" + std::to_string(i % 5)}).ok());
  }
  Rng rng(2);
  TrainingCorpus corpus = BuildTrainingCorpus(t, 0.2, 0, &rng);
  EXPECT_EQ(corpus.validation.size(), 20u);
  EXPECT_EQ(corpus.train.size(), 80u);
  const auto cells = corpus.ValidationCells();
  ASSERT_EQ(cells.size(), 20u);
  EXPECT_EQ(cells[0].col, 0);
}

TEST(CorpusTest, SplitIsDeterministicGivenRngState) {
  Table t = CorpusTable();
  Rng rng_a(3), rng_b(3);
  TrainingCorpus a = BuildTrainingCorpus(t, 0.4, 0, &rng_a);
  TrainingCorpus b = BuildTrainingCorpus(t, 0.4, 0, &rng_b);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].row, b.train[i].row);
    EXPECT_EQ(a.train[i].target_col, b.train[i].target_col);
  }
}

// Column a: all 100 rows present; b: 30 present; c: none present.
Table CappedTable() {
  Schema schema({{"a", AttrType::kCategorical},
                 {"b", AttrType::kCategorical},
                 {"c", AttrType::kCategorical}});
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(t.AppendRow({"a" + std::to_string(i % 7),
                             i % 10 < 3 ? "b" + std::to_string(i % 3) : "",
                             ""})
                    .ok());
  }
  return t;
}

// Per column: {train, validation} sample counts.
std::vector<std::pair<int, int>> PerColumnCounts(const TrainingCorpus& corpus,
                                                 int num_cols) {
  std::vector<std::pair<int, int>> counts(static_cast<size_t>(num_cols));
  for (const TrainingSample& s : corpus.train) {
    ++counts[static_cast<size_t>(s.target_col)].first;
  }
  for (const TrainingSample& s : corpus.validation) {
    ++counts[static_cast<size_t>(s.target_col)].second;
  }
  return counts;
}

TEST(CappedCorpusTest, KeepsMinOfCapAndPresentCellsPerColumn) {
  const Table t = CappedTable();
  Rng rng(4);
  const TrainingCorpus corpus = BuildTrainingCorpus(t, 0.0, 40, &rng);
  EXPECT_TRUE(corpus.validation.empty());
  const auto counts = PerColumnCounts(corpus, t.num_cols());
  EXPECT_EQ(counts[0].first, 40);
  EXPECT_EQ(counts[1].first, 30);
  EXPECT_EQ(counts[2].first, 0);
}

TEST(CappedCorpusTest, SplitsEachColumnByValidationFraction) {
  const Table t = CappedTable();
  Rng rng(5);
  const TrainingCorpus corpus = BuildTrainingCorpus(t, 0.25, 40, &rng);
  const auto counts = PerColumnCounts(corpus, t.num_cols());
  // 40 -> 10 validation; 30 -> floor(7.5) = 7 validation.
  EXPECT_EQ(counts[0], std::make_pair(30, 10));
  EXPECT_EQ(counts[1], std::make_pair(23, 7));
  EXPECT_EQ(counts[2], std::make_pair(0, 0));
}

TEST(CappedCorpusTest, SamplesDistinctPresentCells) {
  const Table t = CappedTable();
  Rng rng(6);
  const TrainingCorpus corpus = BuildTrainingCorpus(t, 0.2, 25, &rng);
  std::set<std::pair<int64_t, int>> seen;
  for (const auto* part : {&corpus.train, &corpus.validation}) {
    for (const TrainingSample& s : *part) {
      EXPECT_FALSE(t.IsMissing(s.row, s.target_col))
          << s.row << "," << s.target_col;
      EXPECT_TRUE(seen.insert({s.row, s.target_col}).second)
          << "duplicate " << s.row << "," << s.target_col;
    }
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(CappedCorpusTest, CapAbovePresentCountKeepsEveryPresentCell) {
  const Table t = CappedTable();
  Rng capped_rng(7), full_rng(7);
  const TrainingCorpus capped = BuildTrainingCorpus(t, 0.0, 1000, &capped_rng);
  const TrainingCorpus full = BuildTrainingCorpus(t, 0.0, 0, &full_rng);
  auto cells = [](const TrainingCorpus& c) {
    std::set<std::pair<int64_t, int>> out;
    for (const TrainingSample& s : c.train) out.insert({s.row, s.target_col});
    return out;
  };
  EXPECT_EQ(cells(capped).size(), 130u);
  EXPECT_EQ(cells(capped), cells(full));
}

TEST(CappedCorpusTest, DeterministicGivenRngState) {
  const Table t = CappedTable();
  Rng rng_a(8), rng_b(8);
  const TrainingCorpus a = BuildTrainingCorpus(t, 0.3, 20, &rng_a);
  const TrainingCorpus b = BuildTrainingCorpus(t, 0.3, 20, &rng_b);
  auto same = [](const std::vector<TrainingSample>& x,
                 const std::vector<TrainingSample>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].row != y[i].row || x[i].target_col != y[i].target_col) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same(a.train, b.train));
  EXPECT_TRUE(same(a.validation, b.validation));
  // Both calls drew the same numbers, so the streams stay in step.
  EXPECT_EQ(rng_a.Next(), rng_b.Next());
}

// --- K-matrix strategies (paper Fig. 7) -----------------------------------

TEST(KDiagonalTest, DiagonalWeighsAllEqually) {
  const auto d = BuildKDiagonal(KStrategy::kDiagonal, 1, 4, {});
  EXPECT_EQ(d, (std::vector<float>{1.0f, 1.0f, 1.0f, 1.0f}));
}

TEST(KDiagonalTest, TargetColumnIsolatesTarget) {
  const auto d = BuildKDiagonal(KStrategy::kTargetColumn, 2, 4, {});
  EXPECT_EQ(d, (std::vector<float>{0.0f, 0.0f, 1.0f, 0.0f}));
}

TEST(KDiagonalTest, WeakDiagonalBoostsTarget) {
  const auto d = BuildKDiagonal(KStrategy::kWeakDiagonal, 0, 3, {});
  EXPECT_FLOAT_EQ(d[0], 1.0f);
  EXPECT_FLOAT_EQ(d[1], 0.3f);
  EXPECT_FLOAT_EQ(d[2], 0.3f);
}

TEST(KDiagonalTest, FdStrategyBoostsRelatedColumns) {
  // FD: col0 -> col2. Task for col2 should boost col0; task for col1
  // should not.
  std::vector<FunctionalDependency> fds{{{0}, 2}};
  const auto for_target2 = BuildKDiagonal(KStrategy::kWeakDiagonalFd, 2, 4,
                                          fds);
  EXPECT_FLOAT_EQ(for_target2[0], 0.6f);
  EXPECT_FLOAT_EQ(for_target2[1], 0.3f);
  EXPECT_FLOAT_EQ(for_target2[2], 1.0f);
  const auto for_target1 = BuildKDiagonal(KStrategy::kWeakDiagonalFd, 1, 4,
                                          fds);
  EXPECT_FLOAT_EQ(for_target1[0], 0.3f);
  EXPECT_FLOAT_EQ(for_target1[2], 0.3f);
}

TEST(KDiagonalTest, FdLhsTargetBoostsRhs) {
  std::vector<FunctionalDependency> fds{{{0}, 2}};
  const auto d = BuildKDiagonal(KStrategy::kWeakDiagonalFd, 0, 3, fds);
  EXPECT_FLOAT_EQ(d[0], 1.0f);
  EXPECT_FLOAT_EQ(d[2], 0.6f);
}

// --- Task heads -------------------------------------------------------------

TEST(LinearTaskHeadTest, ShapesAndGradients) {
  Rng rng(5);
  LinearTaskHead head("h", /*num_cols=*/3, /*dim=*/4, /*hidden=*/8,
                      /*out_dim=*/5, &rng);
  EXPECT_EQ(head.NumParameters(), (12 * 8 + 8) + (8 * 5 + 5));
  Tape tape;
  Rng frng(6);
  auto v = tape.Constant(Tensor::GlorotUniform(7, 12, &frng));
  auto out = head.Forward(&tape, v);
  EXPECT_EQ(tape.value(out).rows(), 7);
  EXPECT_EQ(tape.value(out).cols(), 5);
}

TEST(AttentionTaskHeadTest, ForwardShapesAndAttentionNormalized) {
  Rng rng(7);
  const int C = 3, D = 4;
  Rng frng(8);
  Tensor col_features = Tensor::GlorotUniform(C, D, &frng);
  AttentionTaskHead head("h", col_features,
                         BuildKDiagonal(KStrategy::kWeakDiagonal, 1, C, {}),
                         D, 6, &rng);
  Tape tape;
  // Five vectors over six rows, one block missing.
  auto h = tape.Constant(Tensor::GlorotUniform(6, D, &frng));
  const std::vector<int32_t> idx = {0, 1, 2, 3, 4, 5, 5, -1, 0,
                                    1, 1, 1, 2, 0, 4};
  AttentionScratch scratch;
  auto out = head.ForwardRows(&tape, h, &idx, C, &scratch);
  const Tensor& att = scratch.alpha;
  EXPECT_EQ(tape.value(out).rows(), 5);
  EXPECT_EQ(tape.value(out).cols(), 6);
  ASSERT_EQ(att.rows(), 5);
  ASSERT_EQ(att.cols(), C);
  for (int64_t r = 0; r < att.rows(); ++r) {
    float sum = 0;
    for (int64_t c = 0; c < att.cols(); ++c) {
      sum += att.at(r, c);
      EXPECT_GE(att.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(AttentionTaskHeadTest, QInitializedFromColumnFeatures) {
  Rng rng(9);
  const int C = 2, D = 3;
  Tensor col_features = Tensor::FromVector(C, D, {1, 2, 3, 4, 5, 6});
  AttentionTaskHead head("h", col_features,
                         BuildKDiagonal(KStrategy::kDiagonal, 0, C, {}), D, 2,
                         &rng);
  std::vector<Parameter*> params;
  head.CollectParameters(&params);
  // First collected parameter is Q.
  ASSERT_FALSE(params.empty());
  EXPECT_TRUE(AllClose(params[0]->value, col_features));
}

TEST(AttentionTaskHeadTest, TrainableEndToEnd) {
  Rng rng(10);
  const int C = 2, D = 3;
  Rng frng(11);
  Tensor col_features = Tensor::GlorotUniform(C, D, &frng);
  AttentionTaskHead head("h", col_features,
                         BuildKDiagonal(KStrategy::kWeakDiagonal, 0, C, {}),
                         D, 2, &rng);
  std::vector<Parameter*> params;
  head.CollectParameters(&params);
  const Tensor v = Tensor::GlorotUniform(8, C * D, &frng);
  const std::vector<int32_t> labels{0, 1, 0, 1, 0, 1, 0, 1};
  float first = 0, last = 0;
  Adam opt(params, 0.05f);
  for (int step = 0; step < 40; ++step) {
    Tape tape;
    auto out = head.Forward(&tape, tape.Constant(v));
    auto loss = tape.SoftmaxCrossEntropy(out, labels);
    if (step == 0) first = tape.value(loss).scalar();
    last = tape.value(loss).scalar();
    tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
    opt.Step();
    opt.ZeroGrad();
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace grimp
