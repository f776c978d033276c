// Property-based gradient checks: random composite computation graphs over
// random shapes must match finite differences for every parameter.

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "tensor/tape.h"

namespace grimp {
namespace {

struct FuzzCase {
  uint64_t seed;
  int64_t n;       // batch rows
  int64_t blocks;  // column blocks
  int64_t d;       // block width
  int64_t classes;
};

class TapeFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

// Builds a GRIMP-shaped graph: embedding table -> gather -> segment mean
// -> concat -> linear -> column attention over the gather index -> cross
// entropy.
TEST_P(TapeFuzzTest, CompositeGraphMatchesFiniteDifferences) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed);
  const int64_t vocab = 6;

  Parameter table("table", Tensor::GlorotUniform(vocab, fc.d, &rng));
  Parameter w("w", Tensor::GlorotUniform(fc.d * 2, fc.d, &rng));
  Parameter q("q", Tensor::GlorotUniform(1, fc.d, &rng));
  Parameter head("head", Tensor::GlorotUniform(fc.d, fc.classes, &rng));

  // Random gather indices (with some -1 sentinels) and labels.
  std::vector<int32_t> gather_idx;
  for (int64_t i = 0; i < fc.n * fc.blocks; ++i) {
    gather_idx.push_back(rng.Bernoulli(0.15)
                             ? -1
                             : static_cast<int32_t>(rng.Uniform(vocab)));
  }
  // Random segments over the gathered rows.
  std::vector<int32_t> offsets{0};
  std::vector<int32_t> seg_indices;
  for (int64_t s = 0; s < fc.n * fc.blocks; ++s) {
    const int len = static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < len; ++e) {
      seg_indices.push_back(
          static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(vocab))));
    }
    offsets.push_back(static_cast<int32_t>(seg_indices.size()));
  }
  std::vector<int32_t> labels;
  for (int64_t i = 0; i < fc.n; ++i) {
    labels.push_back(i % 4 == 3 ? -1
                                : static_cast<int32_t>(
                                      rng.Uniform(
                                          static_cast<uint64_t>(fc.classes))));
  }

  auto loss = [&](bool) {
    Tape tape;
    auto t = tape.Leaf(&table);
    auto gathered = tape.GatherRows(t, gather_idx);           // (n*b) x d
    auto seg = tape.SegmentMean(t, offsets, seg_indices);     // (n*b) x d
    auto cat = tape.ConcatCols({gathered, seg});              // (n*b) x 2d
    auto h = tape.Relu(tape.MatMul(cat, tape.Leaf(&w)));      // (n*b) x d
    // Vector i's blocks are rows i * blocks .. of h, through the gather
    // index (its -1s read as zero blocks here too, duplicates twice).
    auto ctx = tape.ColumnAttention(h, &gather_idx, tape.Leaf(&q),
                                    fc.blocks, nullptr);  // n x d
    auto logits = tape.MatMul(ctx, tape.Leaf(&head));
    auto l = tape.SoftmaxCrossEntropy(logits, labels);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  for (Parameter* p : {&table, &w, &q, &head}) {
    EXPECT_LT(testing::MaxGradError(p, loss, 2e-2f), 5e-2f)
        << p->name << " seed " << fc.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomShapes, TapeFuzzTest,
    ::testing::Values(FuzzCase{1, 3, 2, 2, 3}, FuzzCase{2, 5, 3, 4, 2},
                      FuzzCase{3, 4, 4, 3, 5}, FuzzCase{4, 6, 2, 5, 4},
                      FuzzCase{5, 2, 5, 2, 2}, FuzzCase{6, 7, 3, 3, 6}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// Regression-head variant with MSE and masking.
class TapeFuzzRegressionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TapeFuzzRegressionTest, RegressionGraphMatchesFiniteDifferences) {
  Rng rng(GetParam());
  const int64_t n = 5, d = 3;
  Parameter w1("w1", Tensor::GlorotUniform(d, d, &rng));
  Parameter b1("b1", Tensor::GlorotUniform(1, d, &rng));
  Parameter w2("w2", Tensor::GlorotUniform(d, 1, &rng));
  const Tensor x = Tensor::GlorotUniform(n, d, &rng);
  std::vector<float> targets, mask;
  for (int64_t i = 0; i < n; ++i) {
    targets.push_back(rng.UniformReal(-1, 1));
    mask.push_back(rng.Bernoulli(0.8) ? 1.0f : 0.0f);
  }
  auto loss = [&](bool) {
    Tape tape;
    auto h = tape.Relu(tape.AddBias(
        tape.MatMul(tape.Constant(x), tape.Leaf(&w1)), tape.Leaf(&b1)));
    auto out = tape.MatMul(h, tape.Leaf(&w2));
    auto l = tape.MseLoss(out, targets, mask);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  for (Parameter* p : {&w1, &b1, &w2}) {
    EXPECT_LT(testing::MaxGradError(p, loss), 3e-2f) << p->name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TapeFuzzRegressionTest,
                         ::testing::Values(11, 12, 13, 14, 15));

}  // namespace
}  // namespace grimp
