#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "attention_reference.h"
#include "common/thread_pool.h"
#include "gradcheck.h"
#include "tensor/simd.h"
#include "tensor/tape.h"

namespace grimp {
namespace {

using testing::MaxGradError;

constexpr float kTol = 2e-2f;  // finite differences in float

Parameter MakeParam(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  // Offset away from zero to stay clear of ReLU/equality kinks.
  Tensor t = Tensor::GlorotUniform(rows, cols, &rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] += t[i] >= 0 ? 0.3f : -0.3f;
  }
  return Parameter("p", std::move(t));
}

// A constant that carries a gradient (ConstantInPlace's wants_grad form)
// holding a copy of `v`.
Tape::VarId WantedConstant(Tape* tape, const Tensor& v) {
  Tape::VarId id;
  *tape->ConstantInPlace(&id, /*wants_grad=*/true) = v;
  return id;
}

TEST(TapeTest, ForwardValuesBasicOps) {
  Tape tape;
  auto a = tape.Constant(Tensor::FromVector(1, 2, {1, 2}));
  auto b = tape.Constant(Tensor::FromVector(1, 2, {3, 4}));
  EXPECT_EQ(tape.value(tape.Add(a, b)).at(0, 1), 6.0f);
  EXPECT_EQ(tape.value(tape.Mul(a, b)).at(0, 0), 3.0f);
  EXPECT_EQ(tape.value(tape.Scale(a, 2.0f)).at(0, 1), 4.0f);
  EXPECT_EQ(tape.value(tape.SumAll(b)).scalar(), 7.0f);
}

TEST(TapeTest, ReluForward) {
  Tape tape;
  auto x = tape.Constant(Tensor::FromVector(1, 3, {-1.0f, 0.0f, 2.0f}));
  const Tensor& r = tape.value(tape.Relu(x));
  EXPECT_EQ(r.at(0, 0), 0.0f);
  EXPECT_EQ(r.at(0, 2), 2.0f);
}

TEST(TapeTest, RowSoftmaxRowsSumToOne) {
  Tape tape;
  auto x = tape.Constant(Tensor::FromVector(2, 3, {1, 2, 3, -1, 0, 1}));
  const Tensor& y = tape.value(tape.RowSoftmax(x));
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 3; ++c) sum += y.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(y.at(0, 2), y.at(0, 0));
}

TEST(TapeTest, GatherRowsHandlesMissingSentinel) {
  Tape tape;
  auto t = tape.Constant(Tensor::FromVector(2, 2, {1, 2, 3, 4}));
  auto g = tape.GatherRows(t, {1, -1, 0});
  const Tensor& v = tape.value(g);
  EXPECT_EQ(v.at(0, 0), 3.0f);
  EXPECT_EQ(v.at(1, 0), 0.0f);  // sentinel -> zero row
  EXPECT_EQ(v.at(2, 1), 2.0f);
}

TEST(TapeTest, SegmentMeanComputesMeansAndEmptySegments) {
  Tape tape;
  auto x = tape.Constant(Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6}));
  // Segment 0: rows {0, 2}; segment 1: empty; segment 2: row {1}.
  auto s = tape.SegmentMean(x, {0, 2, 2, 3}, {0, 2, 1});
  const Tensor& v = tape.value(s);
  EXPECT_EQ(v.rows(), 3);
  EXPECT_EQ(v.at(0, 0), 3.0f);
  EXPECT_EQ(v.at(0, 1), 4.0f);
  EXPECT_EQ(v.at(1, 0), 0.0f);
  EXPECT_EQ(v.at(2, 1), 4.0f);
}

// --- Gradient checks, one per op ------------------------------------------

TEST(TapeGradTest, MatMul) {
  Parameter p = MakeParam(3, 4, 1);
  Rng rng(2);
  const Tensor other = Tensor::GlorotUniform(4, 2, &rng);
  auto loss = [&](bool) {
    Tape tape;
    auto w = tape.Leaf(&p);
    auto out = tape.MatMul(w, tape.Constant(other));
    auto l = tape.MseLoss(tape.Reshape(out, 6, 1),
                          {1, 0, -1, 2, 0.5f, -0.5f});
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, AddBias) {
  Parameter p = MakeParam(1, 3, 3);
  Rng rng(4);
  const Tensor x = Tensor::GlorotUniform(4, 3, &rng);
  auto loss = [&](bool) {
    Tape tape;
    auto out = tape.AddBias(tape.Constant(x), tape.Leaf(&p));
    auto sq = tape.Mul(out, out);
    auto l = tape.SumAll(sq);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, MulAndScale) {
  Parameter p = MakeParam(2, 3, 5);
  Rng rng(6);
  const Tensor other = Tensor::GlorotUniform(2, 3, &rng);
  auto loss = [&](bool) {
    Tape tape;
    auto w = tape.Leaf(&p);
    auto out = tape.Scale(tape.Mul(w, tape.Constant(other)), 1.5f);
    auto l = tape.SumAll(tape.Mul(out, out));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, RowScale) {
  Parameter p = MakeParam(3, 2, 7);
  auto loss = [&](bool) {
    Tape tape;
    auto out = tape.RowScale(tape.Leaf(&p), {0.0f, 1.0f, 2.5f});
    auto l = tape.SumAll(tape.Mul(out, out));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, Activations) {
  Parameter p = MakeParam(2, 4, 8);
  auto loss = [&](bool) {
    Tape tape;
    auto act = tape.Relu(tape.Leaf(&p));
    auto l = tape.SumAll(tape.Mul(act, act));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, ConcatColsAndReshape) {
  Parameter p = MakeParam(2, 3, 11);
  Rng rng(12);
  const Tensor other = Tensor::GlorotUniform(2, 2, &rng);
  auto loss = [&](bool) {
    Tape tape;
    auto w = tape.Leaf(&p);
    auto cat = tape.ConcatCols({w, tape.Constant(other), w});
    auto flat = tape.Reshape(cat, 16, 1);
    std::vector<float> targets(16, 0.25f);
    auto l = tape.MseLoss(flat, targets);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

// Large enough that the backward pass splits rows across pool chunks; the
// input grads start unmaterialized, so chunks must not allocate them
// concurrently (a data race under TSan, a double free otherwise).
TEST(TapeGradTest, ConcatColsBackwardAcrossChunks) {
  const int64_t rows = 512;
  const int64_t cols = 32;
  Tape tape;
  const auto a = WantedConstant(&tape, Tensor::Zeros(rows, cols));
  const auto b = WantedConstant(&tape, Tensor::Zeros(rows, cols));
  const auto cat = tape.ConcatCols({a, b, a});
  tape.BackwardFrom(tape.SumAll(cat), Tensor::Scalar(1.0f));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      ASSERT_EQ(tape.grad(a).at(r, c), 2.0f) << r << "," << c;
      ASSERT_EQ(tape.grad(b).at(r, c), 1.0f) << r << "," << c;
    }
  }
}

TEST(TapeGradTest, GatherRowsScatterAddsGradient) {
  Parameter p = MakeParam(4, 2, 13);
  auto loss = [&](bool) {
    Tape tape;
    auto t = tape.Leaf(&p);
    // Row 1 gathered twice: gradient must accumulate.
    auto g = tape.GatherRows(t, {1, -1, 1, 3});
    auto l = tape.SumAll(tape.Mul(g, g));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, SegmentMean) {
  Parameter p = MakeParam(4, 3, 14);
  auto loss = [&](bool) {
    Tape tape;
    auto x = tape.Leaf(&p);
    auto s = tape.SegmentMean(x, {0, 2, 2, 4}, {0, 3, 1, 2});
    auto l = tape.SumAll(tape.Mul(s, s));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, RowSoftmax) {
  Parameter p = MakeParam(3, 4, 15);
  Rng rng(16);
  const Tensor weights = Tensor::GlorotUniform(3, 4, &rng);
  auto loss = [&](bool) {
    Tape tape;
    auto y = tape.RowSoftmax(tape.Leaf(&p));
    auto l = tape.SumAll(tape.Mul(y, tape.Constant(weights)));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

// Gradchecks of ColumnAttention through an index with a -1 block, a
// fully-missing vector and a row read twice by one vector and once by
// another.
const std::vector<int32_t> kAttentionIdx = {0, 2, -1,  //
                                            3, 3, 1,   //
                                            -1, -1, -1,  //
                                            2, 0, 3};

float AttentionLoss(Parameter* h, Parameter* a, const Tensor& weights) {
  Tape tape;
  auto ctx = tape.ColumnAttention(tape.Leaf(h), &kAttentionIdx, tape.Leaf(a),
                                  /*num_blocks=*/3, nullptr);
  auto l = tape.SumAll(tape.Mul(ctx, tape.Constant(weights)));
  tape.BackwardFrom(l, Tensor::Scalar(1.0f));
  return tape.value(l).scalar();
}

TEST(TapeGradTest, ColumnAttentionWrtInput) {
  Parameter h = MakeParam(4, 2, 17);
  Parameter a = MakeParam(1, 2, 18);
  Rng rng(19);
  const Tensor weights = Tensor::GlorotUniform(4, 2, &rng);
  auto loss = [&](bool) { return AttentionLoss(&h, &a, weights); };
  EXPECT_LT(MaxGradError(&h, loss), kTol);
}

TEST(TapeGradTest, ColumnAttentionWrtQuery) {
  Parameter h = MakeParam(4, 2, 20);
  Parameter a = MakeParam(1, 2, 21);
  Rng rng(22);
  const Tensor weights = Tensor::GlorotUniform(4, 2, &rng);
  auto loss = [&](bool) { return AttentionLoss(&h, &a, weights); };
  EXPECT_LT(MaxGradError(&a, loss), kTol);
}

// ColumnAttention against the chain it replaced (attention_reference.h) at
// the scalar tier, at 1 and 4 threads: ctx, alpha, the query's gradient
// and the input gradient memcmp equal, on both forms of the node. The
// detached form's factors rebuild every block's gradient in place with the
// attention_input_grad kernel.
TEST(ColumnAttentionTest, MatchesReplacedChainBitForBit) {
  const SimdLevel level = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kScalar);
  const int threads = ThreadPool::GlobalThreads();
  struct Case {
    int64_t rows, blocks, d, n;
  };
  // The first case crosses the row-parallel threshold at 4 threads.
  for (const Case& cs : {Case{40, 14, 16, 24}, Case{9, 1, 8, 5},
                         Case{12, 15, 33, 6}}) {
    Rng rng(static_cast<uint64_t>(cs.rows * 131 + cs.blocks));
    const Tensor h = Tensor::GlorotUniform(cs.rows, cs.d, &rng);
    const Tensor a = Tensor::GlorotUniform(1, cs.d, &rng);
    const Tensor g = Tensor::GlorotUniform(cs.n, cs.d, &rng);
    std::vector<int32_t> idx;
    for (int64_t i = 0; i < cs.n * cs.blocks; ++i) {
      idx.push_back(rng.Uniform(6) == 0
                        ? -1
                        : static_cast<int32_t>(
                              rng.Uniform(static_cast<uint64_t>(cs.rows))));
    }
    for (int64_t b = 0; b < cs.blocks; ++b) {
      idx[static_cast<size_t>(cs.blocks + b)] = -1;  // vector 1: no blocks
    }
    idx[0] = 0;
    if (cs.blocks > 2) idx[2] = 0;  // vector 0 reads row 0 twice
    testing::AttentionReference ref =
        testing::ReferenceForward(h, idx, a, cs.blocks);
    testing::ReferenceBackward(&ref, a, g);
    Tensor ref_h_grad = Tensor::Zeros(cs.rows, cs.d);
    testing::ReferenceScatter(ref.v_grad, idx, &ref_h_grad);

    for (int t : {1, 4}) {
      SCOPED_TRACE("rows " + std::to_string(cs.rows) + " threads " +
                   std::to_string(t));
      ThreadPool::SetGlobalThreads(t);
      Parameter hp("h", h);
      Parameter ap("a", a);
      Tape tape;
      AttentionScratch scratch;
      const auto h_id = tape.Leaf(&hp);
      const auto a_id = tape.Leaf(&ap);
      const auto ctx =
          tape.ColumnAttention(h_id, &idx, a_id, cs.blocks, &scratch);
      EXPECT_TRUE(testing::BitEqual(tape.value(ctx), ref.ctx));
      EXPECT_TRUE(testing::BitEqual(scratch.alpha, ref.alpha));
      tape.BackwardFrom(ctx, g);
      EXPECT_TRUE(testing::BitEqual(scratch.score_grad, ref.score_grad));
      EXPECT_TRUE(testing::BitEqual(tape.grad(a_id), ref.a_grad));
      EXPECT_TRUE(testing::BitEqual(tape.grad(h_id), ref_h_grad));

      Tape detached;
      AttentionScratch factors;
      const auto a2 = detached.Leaf(&ap);
      const auto ctx2 =
          detached.ColumnAttention(&h, &idx, a2, cs.blocks, &factors);
      EXPECT_TRUE(testing::BitEqual(detached.value(ctx2), ref.ctx));
      detached.BackwardFrom(ctx2, g);
      EXPECT_TRUE(testing::BitEqual(detached.grad(a2), ref.a_grad));
      EXPECT_TRUE(testing::BitEqual(factors.alpha, ref.alpha));
      EXPECT_TRUE(testing::BitEqual(factors.score_grad, ref.score_grad));
      EXPECT_TRUE(testing::BitEqual(factors.ctx_grad, g));
      EXPECT_TRUE(testing::BitEqual(factors.query, a));
      Tensor rebuilt = Tensor::Zeros(cs.rows, cs.d);
      for (size_t i = 0; i < idx.size(); ++i) {
        if (idx[i] < 0) continue;
        const simd::InputGradTerm term{
            factors.ctx_grad.data() +
                static_cast<int64_t>(i) / cs.blocks * cs.d,
            factors.query.data(), factors.alpha[static_cast<int64_t>(i)],
            factors.score_grad[static_cast<int64_t>(i)]};
        simd::ScalarKernels()->attention_input_grad(
            cs.d, 1, &term,
            rebuilt.data() + static_cast<int64_t>(idx[i]) * cs.d);
      }
      EXPECT_TRUE(testing::BitEqual(rebuilt, ref_h_grad));
    }
  }
  ThreadPool::SetGlobalThreads(threads);
  SetSimdLevel(level);
}

TEST(TapeGradTest, SoftmaxCrossEntropy) {
  Parameter p = MakeParam(4, 3, 22);
  const std::vector<int32_t> labels{0, 2, -1, 1};  // one ignored row
  auto loss = [&](bool) {
    Tape tape;
    auto l = tape.SoftmaxCrossEntropy(tape.Leaf(&p), labels);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, SoftmaxCrossEntropyWithClassWeights) {
  Parameter p = MakeParam(3, 3, 23);
  const std::vector<int32_t> labels{0, 1, 2};
  const std::vector<float> weights{2.0f, 1.0f, 0.5f};
  auto loss = [&](bool) {
    Tape tape;
    auto l = tape.SoftmaxCrossEntropy(tape.Leaf(&p), labels, weights);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, FocalLoss) {
  Parameter p = MakeParam(4, 3, 24);
  const std::vector<int32_t> labels{2, 0, 1, -1};
  auto loss = [&](bool) {
    Tape tape;
    auto l = tape.FocalLoss(tape.Leaf(&p), labels, 2.0f);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, MseLossWithMask) {
  Parameter p = MakeParam(4, 1, 25);
  const std::vector<float> targets{1.0f, -1.0f, 0.5f, 3.0f};
  const std::vector<float> mask{1.0f, 0.0f, 1.0f, 1.0f};
  auto loss = [&](bool) {
    Tape tape;
    auto l = tape.MseLoss(tape.Leaf(&p), targets, mask);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&p, loss), kTol);
}

TEST(TapeGradTest, CompositeTwoLayerNetwork) {
  // End-to-end composite: gather -> concat -> matmul -> relu -> CE.
  Parameter table = MakeParam(5, 3, 26);
  Parameter w = MakeParam(6, 4, 27);
  const std::vector<int32_t> labels{1, 3, 0};
  auto loss = [&](bool) {
    Tape tape;
    auto t = tape.Leaf(&table);
    auto g1 = tape.GatherRows(t, {0, 2, 4});
    auto g2 = tape.GatherRows(t, {1, -1, 3});
    auto x = tape.ConcatCols({g1, g2});
    auto h = tape.Relu(tape.MatMul(x, tape.Leaf(&w)));
    auto l = tape.SoftmaxCrossEntropy(h, labels);
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
    return tape.value(l).scalar();
  };
  EXPECT_LT(MaxGradError(&table, loss), kTol);
  EXPECT_LT(MaxGradError(&w, loss), kTol);
}

TEST(TapeTest, CrossEntropyIgnoresAllRowsGracefully) {
  Tape tape;
  auto x = tape.Constant(Tensor::FromVector(2, 2, {1, 2, 3, 4}));
  auto l = tape.SoftmaxCrossEntropy(x, {-1, -1});
  EXPECT_EQ(tape.value(l).scalar(), 0.0f);
  tape.BackwardFrom(l, Tensor::Scalar(1.0f));  // must not crash
}

TEST(TapeTest, LeafAccumulatesIntoParameterGrad) {
  Parameter p("p", Tensor::FromVector(1, 2, {1.0f, 2.0f}));
  {
    Tape tape;
    auto l = tape.SumAll(tape.Leaf(&p));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
  }
  EXPECT_EQ(p.grad.at(0, 0), 1.0f);
  EXPECT_EQ(p.grad.at(0, 1), 1.0f);
  {
    Tape tape;
    auto l = tape.SumAll(tape.Leaf(&p));
    tape.BackwardFrom(l, Tensor::Scalar(1.0f));
  }
  // Accumulates across tapes until ZeroGrad.
  EXPECT_EQ(p.grad.at(0, 0), 2.0f);
  p.ZeroGrad();
  EXPECT_EQ(p.grad.at(0, 0), 0.0f);
}

// --- Gradient liveness -----------------------------------------------------

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Ops over inputs that carry no gradient record no backward, and a
// backward skips the inputs that carry none: the constant's grad is never
// materialized while the parameter's keeps its bits. A constant made with
// wants_grad (ConstantInPlace) gets its gradient as before.
TEST(TapeLivenessTest, OpsOverConstantsRecordNoBackward) {
  Rng rng(51);
  const Tensor x = Tensor::GlorotUniform(5, 3, &rng);
  const Tensor y = Tensor::GlorotUniform(3, 2, &rng);
  const auto run = [&](bool wants_grad, Parameter* w, Tensor* x_grad) {
    w->ZeroGrad();
    Tape tape;
    const Tape::VarId xc =
        wants_grad ? WantedConstant(&tape, x) : tape.Constant(x);
    const Tape::VarId slice = tape.SliceRows(xc, 2);
    const Tape::VarId product = tape.MatMul(xc, tape.Constant(y));
    EXPECT_EQ(tape.carries_grad(slice), wants_grad);
    EXPECT_EQ(tape.carries_grad(product), wants_grad);
    const Tape::VarId lw = tape.Leaf(w);
    const Tape::VarId out =
        tape.Add(tape.MatMul(xc, lw), tape.MatMul(tape.SliceRows(
                                          tape.Constant(x), 5), lw));
    EXPECT_TRUE(tape.carries_grad(out));
    tape.BackwardFrom(tape.SumAll(tape.Mul(out, out)), Tensor::Scalar(1.0f));
    *x_grad = tape.grad(xc);
  };
  Parameter w_dead = MakeParam(3, 2, 52);
  Parameter w_live = MakeParam(3, 2, 52);
  Tensor dead_grad, live_grad;
  run(false, &w_dead, &dead_grad);
  run(true, &w_live, &live_grad);
  EXPECT_EQ(dead_grad.SumAbs(), 0.0f);
  EXPECT_GT(live_grad.SumAbs(), 0.0f);
  EXPECT_TRUE(w_dead.grad_written);
  EXPECT_TRUE(SameBits(w_dead.grad, w_live.grad));
}

// A HeteroSage node whose h_dst is a slice of a constant, as the first
// layer of a sampled step reads the gathered features: the backward takes
// the weight gradients and materializes no input gradient (no lane dx, no
// replay). With a gradient-wanted constant the input gradient equals a
// Leaf's, and the weight gradients match in every case.
TEST(TapeLivenessTest, HeteroSageOnConstantSliceTakesNoInputGradient) {
  constexpr int64_t kDst = 4;
  constexpr int64_t kSrc = 6;
  constexpr int64_t kIn = 3;
  constexpr int64_t kOut = 2;
  // Row 2 has no edge of either type; rows 0 and 3 have both.
  const std::vector<int32_t> off0{0, 2, 3, 3, 5}, idx0{1, 4, 0, 2, 5};
  const std::vector<int32_t> off1{0, 1, 1, 1, 3}, idx1{5, 3, 4};
  Rng rng(53);
  const Tensor features = Tensor::GlorotUniform(kSrc, kIn, &rng);
  const Tensor upstream = Tensor::GlorotUniform(kDst, kOut, &rng);
  struct Run {
    Tensor input_grad;
    std::vector<Tensor> weight_grads;
    bool any_dx = false;
  };
  enum class Input { kConstant, kWantedConstant, kLeaf };
  const auto run = [&](Input input) {
    std::vector<Parameter> params;
    for (int t = 0; t < 2; ++t) {
      params.push_back(MakeParam(2 * kIn, kOut, 60 + t));
      params.push_back(MakeParam(1, kOut, 70 + t));
    }
    Parameter h("h", features);
    Tape tape;
    SageScratch scratch;
    scratch.lanes.resize(2);
    scratch.lanes[0].offsets = &off0;
    scratch.lanes[0].indices = &idx0;
    scratch.lanes[0].rows = {0, 1, 3, 2};
    scratch.lanes[0].live = 3;
    scratch.lanes[1].offsets = &off1;
    scratch.lanes[1].indices = &idx1;
    scratch.lanes[1].rows = {0, 3, 2};
    scratch.lanes[1].live = 2;
    scratch.row_scale = {0.5f, 1.0f, 0.0f, 0.5f};
    for (int t = 0; t < 2; ++t) {
      scratch.lanes[t].weight = tape.Leaf(&params[2 * t]);
      scratch.lanes[t].bias = tape.Leaf(&params[2 * t + 1]);
    }
    const Tape::VarId src =
        input == Input::kLeaf             ? tape.Leaf(&h)
        : input == Input::kWantedConstant ? WantedConstant(&tape, features)
                                          : tape.Constant(&features);
    const Tape::VarId dst = tape.SliceRows(src, kDst);
    tape.BackwardFrom(tape.HeteroSage(dst, src, &scratch), upstream);
    Run out;
    out.input_grad = input == Input::kLeaf ? h.grad : tape.grad(src);
    for (const Parameter& p : params) out.weight_grads.push_back(p.grad);
    for (const SageLane& lane : scratch.lanes) {
      out.any_dx = out.any_dx || lane.dx.size() > 0;
    }
    return out;
  };
  const Run dead = run(Input::kConstant);
  const Run wanted = run(Input::kWantedConstant);
  const Run leaf = run(Input::kLeaf);
  EXPECT_FALSE(dead.any_dx);
  EXPECT_EQ(dead.input_grad.SumAbs(), 0.0f);
  EXPECT_TRUE(wanted.any_dx);
  EXPECT_TRUE(SameBits(wanted.input_grad, leaf.input_grad));
  // The input gradient by hand: each live row's dx = (g * row_scale) W^T
  // sends its self half to its own row (dst row i is src row i) and its
  // mean half to its neighbors.
  Tensor ref = Tensor::Zeros(kSrc, kIn);
  const float row_scale[kDst] = {0.5f, 1.0f, 0.0f, 0.5f};
  for (int t = 0; t < 2; ++t) {
    const std::vector<int32_t>& off = t == 0 ? off0 : off1;
    const std::vector<int32_t>& idx = t == 0 ? idx0 : idx1;
    const Tensor w = MakeParam(2 * kIn, kOut, 60 + t).value;
    for (int64_t i = 0; i < kDst; ++i) {
      const int32_t deg = off[i + 1] - off[i];
      if (deg == 0) continue;
      for (int64_t c = 0; c < 2 * kIn; ++c) {
        float dx = 0.0f;
        for (int64_t o = 0; o < kOut; ++o) {
          dx += upstream.at(i, o) * row_scale[i] * w.at(c, o);
        }
        if (c < kIn) {
          ref.at(i, c) += dx;
        } else {
          for (int32_t e = off[i]; e < off[i + 1]; ++e) {
            ref.at(idx[e], c - kIn) += dx / static_cast<float>(deg);
          }
        }
      }
    }
  }
  EXPECT_TRUE(AllClose(leaf.input_grad, ref, 1e-5f, 1e-4f));
  for (size_t i = 0; i < leaf.weight_grads.size(); ++i) {
    EXPECT_TRUE(SameBits(dead.weight_grads[i], leaf.weight_grads[i])) << i;
    EXPECT_TRUE(SameBits(wanted.weight_grads[i], leaf.weight_grads[i])) << i;
  }
}

// --- Slot retention --------------------------------------------------------

// One training step of a small network on `tape`: n gathered rows (every
// third one the missing-value sentinel) plus a constant written in place,
// a fused linear + ReLU, and cross entropy plus a scaled sum of squares.
// `extra` appends a further branch of nodes to the loss.
struct RetentionNet {
  Parameter table = MakeParam(7, 4, 41);
  Parameter w = MakeParam(4, 5, 42);
  Parameter b = MakeParam(1, 5, 43);

  void ZeroGrads() {
    table.ZeroGrad();
    w.ZeroGrad();
    b.ZeroGrad();
  }

  Tape::VarId Record(Tape* tape, int64_t n, bool extra, float shift) {
    std::vector<int32_t> rows;
    std::vector<int32_t> labels;
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back(i % 3 == 2 ? -1 : static_cast<int32_t>(i % 7));
      labels.push_back(i % 4 == 3 ? -1 : static_cast<int32_t>(i % 5));
    }
    const Tape::VarId gathered = tape->GatherRows(tape->Leaf(&table), rows);
    Tape::VarId c;
    Tensor* cv = tape->ConstantInPlace(&c);
    cv->ResizeUninit(n, 4);
    for (int64_t i = 0; i < cv->size(); ++i) {
      (*cv)[i] = shift + 0.01f * static_cast<float>(i);
    }
    const Tape::VarId h = tape->LinearRelu(tape->Add(gathered, c),
                                           tape->Leaf(&w), tape->Leaf(&b));
    Tape::VarId loss = tape->Add(
        tape->SoftmaxCrossEntropy(h, labels),
        tape->Scale(tape->SumAll(tape->Mul(h, h)), 0.01f));
    if (extra) {
      const Tape::VarId cat = tape->ConcatCols({h, tape->RowSoftmax(h)});
      const Tape::VarId flat = tape->Reshape(cat, 1, n * 10);
      loss = tape->Add(loss, tape->SumAll(tape->Relu(flat)));
    }
    tape->BackwardFrom(loss, Tensor::Scalar(1.0f));
    return loss;
  }
};

// Every node's value and grad buffer, read after a backward (grad() zero-
// fills a node no consumer reached, in its slot).
std::vector<const float*> Buffers(const Tape& tape) {
  std::vector<const float*> out;
  for (Tape::VarId id = 0; id < tape.num_nodes(); ++id) {
    out.push_back(tape.value(id).data());
    out.push_back(tape.grad(id).data());
  }
  return out;
}

// After Reset, a step of the same shapes records into the buffers of the
// step before: every value and grad keeps its data() pointer, step after
// step, so steady-state training stops allocating tensors. Between steps
// the test takes decoy tensors of every recorded shape: a tape that freed
// its buffers on Reset would hand them to the decoys and get other ones.
TEST(TapeRetentionTest, SameShapesReuseEveryBuffer) {
  RetentionNet net;
  Tape tape;
  net.Record(&tape, 9, /*extra=*/true, 0.5f);
  const std::vector<const float*> first = Buffers(tape);
  const Tape::VarId nodes = tape.num_nodes();
  for (int step = 1; step < 4; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<std::pair<int64_t, int64_t>> shapes;
    for (Tape::VarId id = 0; id < nodes; ++id) {
      shapes.emplace_back(tape.value(id).rows(), tape.value(id).cols());
    }
    tape.Reset();
    std::vector<Tensor> decoys;
    for (const auto& [rows, cols] : shapes) {
      decoys.push_back(Tensor::Uninit(rows, cols));
      decoys.push_back(Tensor::Uninit(rows, cols));
    }
    net.ZeroGrads();
    net.Record(&tape, 9, /*extra=*/true, 0.5f + 0.1f * step);
    ASSERT_EQ(tape.num_nodes(), nodes);
    const std::vector<const float*> again = Buffers(tape);
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i], first[i])
          << (i % 2 == 0 ? "value" : "grad") << " of node " << i / 2;
    }
  }
}

// A node reached in one step and not in the next: its slot still holds the
// old grad, but grad() reads zeros and its backward does not run, so a
// Leaf adds nothing stale into its Parameter.
TEST(TapeRetentionTest, UnreachedNodeReadsZerosAndRunsNoBackward) {
  Parameter p("p", Tensor::FromVector(1, 3, {1.0f, -2.0f, 3.0f}));
  Tape tape;
  Tape::VarId leaf = tape.Leaf(&p);
  Tape::VarId scaled = tape.Scale(leaf, 2.0f);
  tape.BackwardFrom(tape.SumAll(scaled), Tensor::Scalar(1.0f));
  ASSERT_EQ(p.grad.at(0, 0), 2.0f);
  ASSERT_EQ(tape.grad(scaled).at(0, 0), 1.0f);

  tape.Reset();
  p.ZeroGrad();
  // The same slots, then a loss that does not read them.
  leaf = tape.Leaf(&p);
  scaled = tape.Scale(leaf, 2.0f);
  const Tape::VarId other =
      WantedConstant(&tape, Tensor::FromVector(1, 3, {4.0f, 5.0f, 6.0f}));
  tape.BackwardFrom(tape.SumAll(other), Tensor::Scalar(1.0f));
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(p.grad.at(0, c), 0.0f) << "stale Leaf contribution, col " << c;
    EXPECT_EQ(tape.grad(scaled).at(0, c), 0.0f) << "col " << c;
    EXPECT_EQ(tape.grad(leaf).at(0, c), 0.0f) << "col " << c;
    EXPECT_EQ(tape.grad(other).at(0, c), 1.0f) << "col " << c;
  }
}

// The borrowing constant reads the caller's tensor in place, and its slot
// takes a buffer of its own again when a later pass records another value
// there, so nothing is ever written into the borrowed tensor.
TEST(TapeRetentionTest, BorrowedConstantReadsInPlaceAndNeverWritesIt) {
  const Tensor features =
      Tensor::FromVector(2, 3, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  const Tensor original = features;
  Parameter w("w", Tensor::FromVector(3, 1, {0.5f, -1.0f, 2.0f}));
  Tape tape;
  const Tape::VarId x = tape.Constant(&features);
  EXPECT_EQ(tape.value(x).data(), features.data());
  const Tape::VarId y = tape.MatMul(x, tape.Leaf(&w));
  EXPECT_EQ(tape.value(y).at(0, 0), 4.5f);
  EXPECT_EQ(tape.value(y).at(1, 0), 9.0f);
  tape.BackwardFrom(tape.SumAll(y), Tensor::Scalar(1.0f));
  EXPECT_EQ(w.grad.at(2, 0), 9.0f);

  tape.Reset();
  const Tape::VarId copy = tape.Constant(Tensor::Full(2, 3, 7.0f));
  EXPECT_NE(tape.value(copy).data(), features.data());
  EXPECT_EQ(tape.value(copy).at(1, 2), 7.0f);
  EXPECT_EQ(std::memcmp(features.data(), original.data(),
                        static_cast<size_t>(features.size()) * sizeof(float)),
            0);
}

// Recording past the slot count, into slots smaller than the new shapes,
// and then smaller shapes into slots holding stale values all give the
// values and grads a fresh tape computes.
TEST(TapeRetentionTest, GrowingAndShrinkingStepsMatchAFreshTape) {
  RetentionNet net;
  Tape reused;
  const struct {
    int64_t n;
    bool extra;
  } steps[] = {{4, false}, {11, true}, {5, true}, {3, false}};
  for (size_t k = 0; k < std::size(steps); ++k) {
    SCOPED_TRACE("step " + std::to_string(k));
    const float shift = 0.25f * static_cast<float>(k + 1);
    reused.Reset();
    net.ZeroGrads();
    net.Record(&reused, steps[k].n, steps[k].extra, shift);
    const Tensor table_grad = net.table.grad;
    const Tensor w_grad = net.w.grad;
    const Tensor b_grad = net.b.grad;

    Tape fresh;
    net.ZeroGrads();
    net.Record(&fresh, steps[k].n, steps[k].extra, shift);
    ASSERT_EQ(reused.num_nodes(), fresh.num_nodes());
    for (Tape::VarId id = 0; id < fresh.num_nodes(); ++id) {
      EXPECT_TRUE(SameBits(reused.value(id), fresh.value(id)))
          << "value of node " << id;
      EXPECT_TRUE(SameBits(reused.grad(id), fresh.grad(id)))
          << "grad of node " << id;
    }
    EXPECT_TRUE(SameBits(table_grad, net.table.grad));
    EXPECT_TRUE(SameBits(w_grad, net.w.grad));
    EXPECT_TRUE(SameBits(b_grad, net.b.grad));
  }
}

}  // namespace
}  // namespace grimp
