// Parity tests of the vectorized kernel table against the scalar reference
// across ragged/remainder shapes, plus gradcheck of the fused epilogue tape
// ops at every available SIMD level. Also runs under GRIMP_SIMD=scalar via
// the simd_test_scalar CTest variant (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "attention_reference.h"
#include "common/rng.h"
#include "gradcheck.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"
#include "tensor/simd.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace grimp {
namespace {

// Forces a dispatch level for one scope, restoring the previous level on
// exit so tests do not leak state into each other.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : prev_(ActiveSimdLevel()), applied_(SetSimdLevel(level)) {}
  ~ScopedSimdLevel() { SetSimdLevel(prev_); }
  SimdLevel applied() const { return applied_; }

 private:
  SimdLevel prev_;
  SimdLevel applied_;
};

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdAvx2Supported()) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

Tensor RandomTensor(int64_t rows, int64_t cols, Rng* rng) {
  Tensor t = Tensor::Uninit(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = rng->UniformReal(-1.5f, 1.5f);
  }
  return t;
}

// Reference y = relu?(a*b + bias) built from the naive kernel.
Tensor FusedReference(const Tensor& a, const Tensor& b, const Tensor& bias,
                      bool relu) {
  Tensor out = MatMulNaive(a, b);
  for (int64_t r = 0; r < out.rows(); ++r) {
    for (int64_t c = 0; c < out.cols(); ++c) {
      float v = out.at(r, c) + bias[c];
      if (relu && v < 0.0f) v = 0.0f;
      out.at(r, c) = v;
    }
  }
  return out;
}

// Ragged shapes: m/n/k not multiples of the 8/16-wide panels, m=1 row
// vectors, k=1 outer products, and the GNN's real shapes in miniature.
struct Shape {
  int64_t m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},   {1, 17, 5},  {3, 8, 16},  {5, 7, 9},
                         {6, 32, 16}, {7, 33, 31}, {13, 50, 17}, {16, 64, 64},
                         {21, 5, 39}, {64, 32, 3}, {1, 64, 64}};

TEST(SimdDispatchTest, ParseSimdChoice) {
  SimdLevel level;
  bool is_auto = false;
  EXPECT_TRUE(ParseSimdChoice("scalar", &level, &is_auto));
  EXPECT_EQ(level, SimdLevel::kScalar);
  EXPECT_FALSE(is_auto);
  EXPECT_TRUE(ParseSimdChoice("avx2", &level, &is_auto));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  EXPECT_FALSE(is_auto);
  EXPECT_TRUE(ParseSimdChoice("auto", &level, &is_auto));
  EXPECT_TRUE(is_auto);
  EXPECT_FALSE(ParseSimdChoice("", &level, &is_auto));
  EXPECT_FALSE(ParseSimdChoice("sse9", &level, &is_auto));
  EXPECT_FALSE(ParseSimdChoice("AVX2", &level, &is_auto));
}

TEST(SimdDispatchTest, SetLevelRoundTripsAndClamps) {
  const SimdLevel prev = ActiveSimdLevel();
  EXPECT_EQ(SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  const SimdLevel applied = SetSimdLevel(SimdLevel::kAvx2);
  if (SimdAvx2Supported()) {
    EXPECT_EQ(applied, SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(applied, SimdLevel::kScalar);  // clamped
  }
  EXPECT_EQ(ActiveSimdLevel(), applied);
  SetSimdLevel(prev);
}

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd::ScalarKernels()->name, "scalar");
  if (SimdAvx2Supported()) {
    ASSERT_NE(simd::Avx2Kernels(), nullptr);
    EXPECT_STREQ(simd::Avx2Kernels()->name, "avx2");
  }
}

TEST(SimdGemmTest, MatchesNaiveAcrossShapesAtEveryLevel) {
  Rng rng(11);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    for (const Shape& s : kShapes) {
      const Tensor a = RandomTensor(s.m, s.k, &rng);
      const Tensor b = RandomTensor(s.k, s.n, &rng);
      EXPECT_TRUE(AllClose(MatMul(a, b), MatMulNaive(a, b), 1e-5f, 1e-4f))
          << SimdLevelName(level) << " gemm " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

TEST(SimdGemmTest, TransposedVariantsMatchNaiveAtEveryLevel) {
  Rng rng(12);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    for (const Shape& s : kShapes) {
      const Tensor at = RandomTensor(s.k, s.m, &rng);  // A^T walk
      const Tensor b = RandomTensor(s.k, s.n, &rng);
      EXPECT_TRUE(AllClose(MatMulTransA(at, b), MatMulTransANaive(at, b),
                           1e-5f, 1e-4f))
          << SimdLevelName(level) << " transA " << s.m << "x" << s.k << "x"
          << s.n;
      const Tensor a = RandomTensor(s.m, s.k, &rng);
      const Tensor bt = RandomTensor(s.n, s.k, &rng);  // B^T operand
      EXPECT_TRUE(AllClose(MatMulTransB(a, bt), MatMulTransBNaive(a, bt),
                           1e-5f, 1e-4f))
          << SimdLevelName(level) << " transB " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

TEST(SimdGemmTest, FusedEpilogueMatchesUnfusedChain) {
  Rng rng(13);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    for (const Shape& s : kShapes) {
      const Tensor a = RandomTensor(s.m, s.k, &rng);
      const Tensor b = RandomTensor(s.k, s.n, &rng);
      const Tensor bias = RandomTensor(1, s.n, &rng);
      for (bool relu : {false, true}) {
        EXPECT_TRUE(AllClose(MatMulFused(a, b, bias, relu),
                             FusedReference(a, b, bias, relu), 1e-5f, 1e-4f))
            << SimdLevelName(level) << " fused relu=" << relu << " " << s.m
            << "x" << s.k << "x" << s.n;
      }
    }
  }
}

TEST(SimdGemmTest, AccumulatingVariantsAddIntoOutput) {
  Rng rng(14);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    for (const Shape& s : kShapes) {
      const Tensor g = RandomTensor(s.m, s.n, &rng);
      const Tensor w = RandomTensor(s.k, s.n, &rng);
      Tensor acc = RandomTensor(s.m, s.k, &rng);
      Tensor expected = acc;
      expected.Axpy(1.0f, MatMulTransBNaive(g, w));
      MatMulTransBAcc(g, w, &acc);
      EXPECT_TRUE(AllClose(acc, expected, 1e-5f, 1e-4f))
          << SimdLevelName(level) << " transBAcc " << s.m << "x" << s.k << "x"
          << s.n;

      const Tensor x = RandomTensor(s.m, s.k, &rng);
      Tensor wacc = RandomTensor(s.k, s.n, &rng);
      Tensor wexpected = wacc;
      wexpected.Axpy(1.0f, MatMulTransANaive(x, g));
      MatMulTransAAcc(x, g, &wacc);
      EXPECT_TRUE(AllClose(wacc, wexpected, 1e-5f, 1e-4f))
          << SimdLevelName(level) << " transAAcc " << s.m << "x" << s.k << "x"
          << s.n;
    }
  }
}

// The row-lane GEMM (the narrow-N and transposed-A paths) against the
// generic panel kernel on the same inputs, through the kernel table: every
// C element must carry the same bits, for each op's A walk and B layout,
// row counts off the 6-row tile and the 64-row block, every epilogue, and
// a row range cut at an odd row.
TEST(SimdGemmTest, RowLaneKernelMatchesPanelKernelBitForBit) {
  enum class Op { kPlain, kTransA, kTransB };
  struct Epilogue {
    bool bias, relu, accumulate;
  };
  const Epilogue kEpilogues[] = {
      {false, false, false}, {true, false, false}, {false, true, false},
      {true, true, false},   {false, false, true}, {true, true, true}};
  std::vector<int64_t> widths;
  for (int64_t n = 1; n <= 17; ++n) widths.push_back(n);
  for (int64_t n : {20, 31, 33}) widths.push_back(n);
  Rng rng(15);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    const simd::KernelTable& kt = simd::Kernels();
    for (int64_t m : {13, 70}) {
      for (int64_t k : {1, 7, 770}) {
        const Tensor x = RandomTensor(m, k, &rng);  // A, row-major
        const Tensor xt = RandomTensor(k, m, &rng);  // A^T operand
        for (int64_t n : widths) {
          const Tensor b = RandomTensor(k, n, &rng);
          const Tensor bt = RandomTensor(n, k, &rng);
          const Tensor bias = RandomTensor(1, n, &rng);
          const Tensor c0 = RandomTensor(m, n, &rng);
          const int64_t panels = (n + kt.gemm_nr - 1) / kt.gemm_nr;
          std::vector<float> bp(static_cast<size_t>(panels * kt.gemm_nr * k));
          for (Op op : {Op::kPlain, Op::kTransA, Op::kTransB}) {
            const bool trans_a = op == Op::kTransA;
            const bool trans_b = op == Op::kTransB;
            const float* a = trans_a ? xt.data() : x.data();
            const int64_t as_i = trans_a ? 1 : k;
            const int64_t as_p = trans_a ? m : 1;
            const float* bd = trans_b ? bt.data() : b.data();
            if (trans_b) {
              kt.gemm_pack_bt(bd, k, k, n, bp.data());
            } else {
              kt.gemm_pack_b(bd, n, k, n, bp.data());
            }
            const int64_t bs_p = trans_b ? 1 : n;
            const int64_t bs_j = trans_b ? k : 1;
            for (const Epilogue& e : kEpilogues) {
              SCOPED_TRACE(std::string(SimdLevelName(level)) + " m=" +
                           std::to_string(m) + " k=" + std::to_string(k) +
                           " n=" + std::to_string(n) + " op=" +
                           std::to_string(static_cast<int>(op)) + " bias=" +
                           std::to_string(e.bias) + " relu=" +
                           std::to_string(e.relu) + " acc=" +
                           std::to_string(e.accumulate));
              simd::GemmEpilogue ep;
              ep.bias = e.bias ? bias.data() : nullptr;
              ep.relu = e.relu;
              ep.accumulate = e.accumulate;
              Tensor panel = c0;
              kt.gemm(a, as_i, as_p, bp.data(), panel.data(), n, 0, m, k, n,
                      ep);
              Tensor rows = c0;
              kt.gemm_rows(a, as_i, as_p, bd, bs_p, bs_j, rows.data(), n, 0,
                           m, k, n, ep);
              EXPECT_TRUE(testing::BitEqual(rows, panel));
              Tensor cut = c0;
              kt.gemm_rows(a, as_i, as_p, bd, bs_p, bs_j, cut.data(), n, 0, 5,
                           k, n, ep);
              kt.gemm_rows(a, as_i, as_p, bd, bs_p, bs_j, cut.data(), n, 5, m,
                           k, n, ep);
              EXPECT_TRUE(testing::BitEqual(cut, panel));
            }
          }
        }
      }
    }
  }
}

// Elementwise kernels are documented bit-identical across levels: the AVX2
// versions perform the exact scalar arithmetic lane-wise (mul+add, no FMA
// contraction), so EXPECT_EQ per element, not AllClose.
class SimdKernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SimdAvx2Supported()) {
      GTEST_SKIP() << "AVX2 not available; scalar-only build/CPU";
    }
    sk_ = simd::ScalarKernels();
    vk_ = simd::Avx2Kernels();
  }
  const simd::KernelTable* sk_ = nullptr;
  const simd::KernelTable* vk_ = nullptr;
  // Ragged lengths: sub-lane, one lane, lane+tail, strip+tail.
  const std::vector<int64_t> lengths_ = {0, 1, 3, 7, 8, 9, 16, 33, 100, 257};
};

TEST_F(SimdKernelParityTest, ReluKernelsBitIdentical) {
  Rng rng(21);
  for (int64_t n : lengths_) {
    const Tensor x = RandomTensor(1, n, &rng);
    const Tensor g = RandomTensor(1, n, &rng);
    Tensor ys = Tensor::Uninit(1, n), yv = Tensor::Uninit(1, n);
    sk_->relu_fwd(n, x.data(), ys.data());
    vk_->relu_fwd(n, x.data(), yv.data());
    Tensor gs = RandomTensor(1, n, &rng);
    Tensor gv = gs;
    sk_->relu_bwd(n, g.data(), ys.data(), gs.data());
    vk_->relu_bwd(n, g.data(), yv.data(), gv.data());
    Tensor ms = Tensor::Uninit(1, n), mv = Tensor::Uninit(1, n);
    sk_->relu_mask(n, g.data(), ys.data(), ms.data());
    vk_->relu_mask(n, g.data(), yv.data(), mv.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(ys[i], yv[i]) << "relu_fwd n=" << n << " i=" << i;
      EXPECT_EQ(gs[i], gv[i]) << "relu_bwd n=" << n << " i=" << i;
      EXPECT_EQ(ms[i], mv[i]) << "relu_mask n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdKernelParityTest, AxpyScaleColSumBitIdentical) {
  Rng rng(22);
  for (int64_t n : lengths_) {
    const Tensor x = RandomTensor(1, n, &rng);
    Tensor ys = RandomTensor(1, n, &rng);
    Tensor yv = ys;
    sk_->axpy(n, 0.37f, x.data(), ys.data());
    vk_->axpy(n, 0.37f, x.data(), yv.data());
    Tensor ss = RandomTensor(1, n, &rng);
    Tensor sv = ss;
    sk_->scale(n, -1.21f, ss.data());
    vk_->scale(n, -1.21f, sv.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(ys[i], yv[i]) << "axpy n=" << n << " i=" << i;
      EXPECT_EQ(ss[i], sv[i]) << "scale n=" << n << " i=" << i;
    }
    const int64_t rows = 5;
    const Tensor m = RandomTensor(rows, n, &rng);
    Tensor accs = RandomTensor(1, n, &rng);
    Tensor accv = accs;
    sk_->col_sum_acc(rows, n, m.data(), accs.data());
    vk_->col_sum_acc(rows, n, m.data(), accv.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(accs[i], accv[i]) << "col_sum_acc n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdKernelParityTest, OptimizerAndMseBwdKernelsBitIdentical) {
  Rng rng(23);
  for (int64_t n : lengths_) {
    const Tensor g = RandomTensor(1, n, &rng);
    Tensor ms = RandomTensor(1, n, &rng), mv = ms;
    Tensor vs = Tensor::Full(1, n, 0.5f), vv = vs;
    Tensor ws = RandomTensor(1, n, &rng), wv = ws;
    sk_->adam_step(n, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.01f, 0.1f, 0.001f,
                   g.data(), ms.data(), vs.data(), ws.data());
    vk_->adam_step(n, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.01f, 0.1f, 0.001f,
                   g.data(), mv.data(), vv.data(), wv.data());
    Tensor vels = RandomTensor(1, n, &rng), velv = vels;
    Tensor sws = RandomTensor(1, n, &rng), swv = sws;
    sk_->sgd_momentum(n, 0.01f, 0.9f, g.data(), vels.data(), sws.data());
    vk_->sgd_momentum(n, 0.01f, 0.9f, g.data(), velv.data(), swv.data());
    const Tensor pred = RandomTensor(1, n, &rng);
    const Tensor tgt = RandomTensor(1, n, &rng);
    Tensor pgs = RandomTensor(1, n, &rng), pgv = pgs;
    sk_->mse_bwd(n, 0.43f, pred.data(), tgt.data(), nullptr, pgs.data());
    vk_->mse_bwd(n, 0.43f, pred.data(), tgt.data(), nullptr, pgv.data());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(ms[i], mv[i]) << "adam m n=" << n << " i=" << i;
      EXPECT_EQ(vs[i], vv[i]) << "adam v n=" << n << " i=" << i;
      EXPECT_EQ(ws[i], wv[i]) << "adam w n=" << n << " i=" << i;
      EXPECT_EQ(vels[i], velv[i]) << "sgd vel n=" << n << " i=" << i;
      EXPECT_EQ(sws[i], swv[i]) << "sgd w n=" << n << " i=" << i;
      EXPECT_EQ(pgs[i], pgv[i]) << "mse_bwd n=" << n << " i=" << i;
    }
  }
}

TEST_F(SimdKernelParityTest, ReductionKernelsAgreeWithinTolerance) {
  Rng rng(24);
  for (int64_t n : lengths_) {
    const Tensor x = RandomTensor(1, n, &rng);
    const double sq_s = sk_->sum_squares(n, x.data());
    const double sq_v = vk_->sum_squares(n, x.data());
    EXPECT_NEAR(sq_s, sq_v, 1e-6 * (1.0 + std::fabs(sq_s))) << "n=" << n;
    const Tensor pred = RandomTensor(1, n, &rng);
    const Tensor tgt = RandomTensor(1, n, &rng);
    int64_t valid_s = -1, valid_v = -1;
    const double mse_s = sk_->mse_sum(n, pred.data(), tgt.data(), nullptr,
                                      &valid_s);
    const double mse_v = vk_->mse_sum(n, pred.data(), tgt.data(), nullptr,
                                      &valid_v);
    EXPECT_EQ(valid_s, valid_v);
    EXPECT_NEAR(mse_s, mse_v, 1e-6 * (1.0 + std::fabs(mse_s))) << "n=" << n;
    // Masked path (every third row dropped).
    Tensor mask = Tensor::Uninit(1, n);
    for (int64_t i = 0; i < n; ++i) mask[i] = (i % 3 == 0) ? 0.0f : 1.0f;
    const double mm_s = sk_->mse_sum(n, pred.data(), tgt.data(), mask.data(),
                                     &valid_s);
    const double mm_v = vk_->mse_sum(n, pred.data(), tgt.data(), mask.data(),
                                     &valid_v);
    EXPECT_EQ(valid_s, valid_v);
    EXPECT_NEAR(mm_s, mm_v, 1e-6 * (1.0 + std::fabs(mm_s))) << "n=" << n;
  }
}

TEST_F(SimdKernelParityTest, SegmentMeanAgreesIncludingEmptySegments) {
  Rng rng(25);
  for (int64_t d : {1, 5, 8, 17, 32, 40}) {
    const Tensor x = RandomTensor(9, d, &rng);
    // Segments: normal, empty, singleton, duplicate-index, empty tail.
    const std::vector<int32_t> offsets = {0, 3, 3, 4, 8, 8};
    const std::vector<int32_t> indices = {0, 2, 4, 7, 1, 1, 5, 8};
    const int64_t segs = static_cast<int64_t>(offsets.size()) - 1;
    Tensor outs = Tensor::Full(segs, d, -99.0f);
    Tensor outv = Tensor::Full(segs, d, -99.0f);
    sk_->segment_mean_fwd(offsets.data(), indices.data(), x.data(), d, 0,
                          segs, outs.data());
    vk_->segment_mean_fwd(offsets.data(), indices.data(), x.data(), d, 0,
                          segs, outv.data());
    EXPECT_TRUE(AllClose(outs, outv, 1e-5f, 1e-4f)) << "d=" << d;
    // Empty segments must be zeroed, not left unwritten.
    for (int64_t c = 0; c < d; ++c) {
      EXPECT_EQ(outs.at(1, c), 0.0f);
      EXPECT_EQ(outv.at(1, c), 0.0f);
      EXPECT_EQ(outv.at(4, c), 0.0f);
    }
  }
}

TEST_F(SimdKernelParityTest, RowSoftmaxAgreesAndNormalizes) {
  Rng rng(26);
  for (int64_t cols : {1, 2, 5, 8, 9, 17, 64}) {
    const int64_t rows = 7;
    const Tensor x = RandomTensor(rows, cols, &rng);
    Tensor ys = Tensor::Uninit(rows, cols);
    Tensor yv = Tensor::Uninit(rows, cols);
    sk_->row_softmax(rows, cols, x.data(), ys.data());
    vk_->row_softmax(rows, cols, x.data(), yv.data());
    EXPECT_TRUE(AllClose(ys, yv, 1e-5f, 1e-4f)) << "cols=" << cols;
    for (int64_t r = 0; r < rows; ++r) {
      float sum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        EXPECT_GE(yv.at(r, c), 0.0f);
        sum += yv.at(r, c);
      }
      EXPECT_NEAR(sum, 1.0f, 1e-5f) << "cols=" << cols << " r=" << r;
    }
  }
}

// Column attention kernels over an index with -1 blocks, a fully-missing
// vector and a row read twice, at the attention head's block counts (one
// column, adult's 14, one past a lane) and widths (a lane, the default
// dim, one past four lanes).
struct AttentionCase {
  int64_t n = 9;
  int64_t rows = 11;
  int64_t nb = 0;
  int64_t d = 0;
  Tensor h, a, g;
  std::vector<int32_t> idx;

  AttentionCase(int64_t blocks, int64_t width, Rng* rng)
      : nb(blocks), d(width), h(RandomTensor(rows, width, rng)),
        a(RandomTensor(1, width, rng)), g(RandomTensor(n, width, rng)) {
    for (int64_t i = 0; i < n * nb; ++i) {
      idx.push_back(rng->Uniform(5) == 0
                        ? -1
                        : static_cast<int32_t>(
                              rng->Uniform(static_cast<uint64_t>(rows))));
    }
    for (int64_t c = 0; c < nb; ++c) idx[static_cast<size_t>(nb + c)] = -1;
    idx[0] = 3;
    if (nb > 1) idx[1] = 3;
  }
  float scale() const { return 1.0f / std::sqrt(static_cast<float>(d)); }
};

struct AttentionOutputs {
  Tensor alpha, ctx, score_grad, a_grad;
};

AttentionOutputs RunAttentionKernels(const simd::KernelTable& kt,
                                     const AttentionCase& c) {
  AttentionOutputs out{Tensor::Uninit(c.n, c.nb), Tensor::Uninit(c.n, c.d),
                       Tensor::Uninit(c.n, c.nb), Tensor::Zeros(1, c.d)};
  Tensor scores = Tensor::Uninit(c.rows, 1);
  kt.attention_scores(c.rows, c.d, c.h.data(), c.a.data(), c.scale(),
                      scores.data());
  kt.attention_fwd(c.n, c.nb, c.d, c.h.data(), c.idx.data(), scores.data(),
                   out.alpha.data(), out.ctx.data());
  kt.attention_bwd(c.n, c.nb, c.d, c.h.data(), c.idx.data(), c.g.data(),
                   out.alpha.data(), c.scale(), out.score_grad.data());
  kt.attention_query_grad(c.n, c.nb, c.d, c.h.data(), c.idx.data(),
                          out.score_grad.data(), out.a_grad.data());
  return out;
}

// Every block's input gradient, each added into a zero row: the replaced
// chain's n x (nb * d) block gradients.
Tensor RebuildBlockGrads(const simd::KernelTable& kt, const AttentionCase& c,
                         const AttentionOutputs& out) {
  Tensor grads = Tensor::Zeros(c.n, c.nb * c.d);
  for (int64_t i = 0; i < c.n * c.nb; ++i) {
    const simd::InputGradTerm term{c.g.data() + i / c.nb * c.d, c.a.data(),
                                   out.alpha[i], out.score_grad[i]};
    kt.attention_input_grad(c.d, 1, &term, grads.data() + i * c.d);
  }
  return grads;
}

TEST(SimdAttentionKernelTest, ScalarEqualsTheReplacedChain) {
  Rng rng(27);
  for (int64_t nb : {1, 14, 15}) {
    for (int64_t d : {8, 32, 33}) {
      SCOPED_TRACE("nb=" + std::to_string(nb) + " d=" + std::to_string(d));
      const AttentionCase c(nb, d, &rng);
      const AttentionOutputs out =
          RunAttentionKernels(*simd::ScalarKernels(), c);
      testing::AttentionReference ref =
          testing::ReferenceForward(c.h, c.idx, c.a, nb);
      testing::ReferenceBackward(&ref, c.a, c.g);
      EXPECT_TRUE(testing::BitEqual(out.alpha, ref.alpha));
      EXPECT_TRUE(testing::BitEqual(out.ctx, ref.ctx));
      EXPECT_TRUE(testing::BitEqual(out.score_grad, ref.score_grad));
      EXPECT_TRUE(testing::BitEqual(out.a_grad, ref.a_grad));
      const Tensor rebuilt =
          RebuildBlockGrads(*simd::ScalarKernels(), c, out);
      EXPECT_TRUE(testing::BitEqual(rebuilt, ref.v_grad));
    }
  }
}

TEST_F(SimdKernelParityTest, AttentionKernelsAgreeWithinTolerance) {
  Rng rng(28);
  for (int64_t nb : {1, 14, 15}) {
    for (int64_t d : {8, 32, 33}) {
      SCOPED_TRACE("nb=" + std::to_string(nb) + " d=" + std::to_string(d));
      const AttentionCase c(nb, d, &rng);
      const AttentionOutputs s = RunAttentionKernels(*sk_, c);
      const AttentionOutputs v = RunAttentionKernels(*vk_, c);
      EXPECT_TRUE(AllClose(s.alpha, v.alpha, 1e-5f, 1e-4f));
      EXPECT_TRUE(AllClose(s.ctx, v.ctx, 1e-5f, 1e-4f));
      EXPECT_TRUE(AllClose(s.score_grad, v.score_grad, 1e-5f, 1e-4f));
      EXPECT_TRUE(AllClose(s.a_grad, v.a_grad, 1e-5f, 1e-4f));
      // Elementwise: bit-identical from the same factors.
      EXPECT_TRUE(testing::BitEqual(RebuildBlockGrads(*sk_, c, s),
                                    RebuildBlockGrads(*vk_, c, s)));
    }
  }
}

// The forward's score table against per-entry dots at every level. Each
// row's score must be the per-block dot it replaces: the scalar chain's
// loop at the scalar level, BlockDots' lane chains and hadd tree
// (BlockDotTree) at AVX2. And the same vectors read through a gathered
// copy (one row per block, so every dot is its own) and an identity index
// must give the same alpha and ctx bits as the table over h, which a
// repeated row and -1 blocks share.
TEST(SimdAttentionKernelTest, ScoreTableMatchesPerEntryDotsAtEveryLevel) {
  Rng rng(29);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    const simd::KernelTable& kt = simd::Kernels();
    for (int64_t nb : {1, 14, 15}) {
      for (int64_t d : {8, 32, 33}) {
        SCOPED_TRACE(std::string(SimdLevelName(level)) + " nb=" +
                     std::to_string(nb) + " d=" + std::to_string(d));
        const AttentionCase c(nb, d, &rng);
        Tensor row_scores = Tensor::Uninit(c.rows, 1);
        kt.attention_scores(c.rows, d, c.h.data(), c.a.data(), c.scale(),
                            row_scores.data());
        Tensor per_block = Tensor::Uninit(c.rows, 1);
        for (int64_t r = 0; r < c.rows; ++r) {
          const float* row = c.h.data() + r * d;
          if (level == SimdLevel::kAvx2) {
            per_block[r] =
                testing::BlockDotTree(row, c.a.data(), d, c.scale());
          } else {
            float acc = 0.0f;
            for (int64_t k = 0; k < d; ++k) acc += row[k] * c.a[k];
            per_block[r] = acc * c.scale();
          }
        }
        EXPECT_TRUE(testing::BitEqual(row_scores, per_block));
        const AttentionOutputs table = RunAttentionKernels(kt, c);
        const int64_t entries = c.n * nb;
        Tensor gathered = Tensor::Zeros(entries, d);
        std::vector<int32_t> identity(static_cast<size_t>(entries), -1);
        for (int64_t e = 0; e < entries; ++e) {
          const int32_t r = c.idx[static_cast<size_t>(e)];
          if (r < 0) continue;
          identity[static_cast<size_t>(e)] = static_cast<int32_t>(e);
          std::copy(c.h.data() + r * d, c.h.data() + (r + 1) * d,
                    gathered.data() + e * d);
        }
        Tensor scores = Tensor::Uninit(entries, 1);
        kt.attention_scores(entries, d, gathered.data(), c.a.data(),
                            c.scale(), scores.data());
        Tensor alpha = Tensor::Uninit(c.n, nb);
        Tensor ctx = Tensor::Uninit(c.n, d);
        kt.attention_fwd(c.n, nb, d, gathered.data(), identity.data(),
                         scores.data(), alpha.data(), ctx.data());
        EXPECT_TRUE(testing::BitEqual(table.alpha, alpha));
        EXPECT_TRUE(testing::BitEqual(table.ctx, ctx));
      }
    }
  }
}

// The row-resident input gradient (one call over a row's terms, the row
// held in registers) against one call per term, mixing attention terms,
// attention terms with a zero score gradient and dense rows, at every
// level; elementwise, so also bit-identical to the scalar table.
TEST(SimdAttentionKernelTest, RowResidentInputGradMatchesPerTermCalls) {
  Rng rng(30);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    const simd::KernelTable& kt = simd::Kernels();
    for (int64_t d : {1, 8, 32, 33, 70}) {
      SCOPED_TRACE(std::string(SimdLevelName(level)) + " d=" +
                   std::to_string(d));
      constexpr int64_t kTerms = 40;
      const Tensor g = RandomTensor(kTerms, d, &rng);
      const Tensor queries = RandomTensor(3, d, &rng);
      std::vector<simd::InputGradTerm> terms(kTerms);
      for (int64_t t = 0; t < kTerms; ++t) {
        simd::InputGradTerm& term = terms[static_cast<size_t>(t)];
        term.g = g.data() + t * d;
        const uint64_t kind = rng.Uniform(4);
        if (kind == 0) continue;  // dense
        term.a = queries.data() + static_cast<int64_t>(rng.Uniform(3)) * d;
        term.alpha = rng.UniformReal(0.0f, 1.0f);
        term.score_grad = kind == 1 ? 0.0f : rng.UniformReal(-1.0f, 1.0f);
      }
      const Tensor start = RandomTensor(1, d, &rng);
      Tensor row = start;
      kt.attention_input_grad(d, kTerms, terms.data(), row.data());
      Tensor per_term = start;
      Tensor scalar = start;
      for (const simd::InputGradTerm& term : terms) {
        kt.attention_input_grad(d, 1, &term, per_term.data());
        simd::ScalarKernels()->attention_input_grad(d, 1, &term,
                                                    scalar.data());
      }
      EXPECT_TRUE(testing::BitEqual(row, per_term));
      EXPECT_TRUE(testing::BitEqual(row, scalar));
    }
  }
}

// Gradcheck of the fused tape ops at every available level: Linear /
// LinearRelu must match AddBias(MatMul)+Relu both in value and in all three
// gradients.
TEST(SimdFusedOpsTest, LinearGradcheckAtEveryLevel) {
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    for (bool relu : {false, true}) {
      Rng rng(31);
      Parameter w("w", Tensor::GlorotUniform(7, 5, &rng));
      Parameter b("b", Tensor::RandomNormal(1, 5, 0.5f, &rng));
      const Tensor x = RandomTensor(9, 7, &rng);
      std::vector<float> targets(9);
      for (auto& t : targets) t = rng.UniformReal(-1.0f, 1.0f);
      auto loss_fn = [&](Parameter* p) {
        return [&, p](bool compute_grad) {
          Tape tape;
          Tape::VarId xv = tape.Constant(x);
          Tape::VarId wv = tape.Leaf(&w);
          Tape::VarId bv = tape.Leaf(&b);
          Tape::VarId h =
              relu ? tape.LinearRelu(xv, wv, bv) : tape.Linear(xv, wv, bv);
          // Reduce to N x 1 via a second plain matmul so MseLoss applies.
          Tensor ones = Tensor::Full(5, 1, 1.0f);
          Tape::VarId pred = tape.MatMul(h, tape.Constant(ones));
          Tape::VarId loss = tape.MseLoss(pred, &targets);
          if (compute_grad) tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
          (void)p;
          return tape.value(loss).scalar();
        };
      };
      EXPECT_LT(testing::MaxGradError(&w, loss_fn(&w)), 2e-2f)
          << SimdLevelName(level) << " relu=" << relu << " dW";
      EXPECT_LT(testing::MaxGradError(&b, loss_fn(&b)), 2e-2f)
          << SimdLevelName(level) << " relu=" << relu << " db";
    }
  }
}

TEST(SimdFusedOpsTest, LinearMatchesUnfusedChainAtEveryLevel) {
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    Rng rng(32);
    Parameter w("w", Tensor::GlorotUniform(6, 10, &rng));
    Parameter b("b", Tensor::RandomNormal(1, 10, 0.5f, &rng));
    const Tensor x = RandomTensor(11, 6, &rng);

    auto run = [&](bool fused, bool relu, Tensor* dw, Tensor* db) {
      w.ZeroGrad();
      b.ZeroGrad();
      Tape tape;
      Tape::VarId xv = tape.Constant(x);
      Tape::VarId wv = tape.Leaf(&w);
      Tape::VarId bv = tape.Leaf(&b);
      Tape::VarId h;
      if (fused) {
        h = relu ? tape.LinearRelu(xv, wv, bv) : tape.Linear(xv, wv, bv);
      } else {
        h = tape.AddBias(tape.MatMul(xv, wv), bv);
        if (relu) h = tape.Relu(h);
      }
      Tape::VarId loss = tape.SumAll(h);
      tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
      *dw = w.grad;
      *db = b.grad;
      return tape.value(h);
    };

    for (bool relu : {false, true}) {
      Tensor dw_f, db_f, dw_u, db_u;
      const Tensor y_f = run(/*fused=*/true, relu, &dw_f, &db_f);
      const Tensor y_u = run(/*fused=*/false, relu, &dw_u, &db_u);
      EXPECT_TRUE(AllClose(y_f, y_u, 1e-5f, 1e-4f))
          << SimdLevelName(level) << " relu=" << relu << " forward";
      EXPECT_TRUE(AllClose(dw_f, dw_u, 1e-4f, 1e-3f))
          << SimdLevelName(level) << " relu=" << relu << " dW";
      EXPECT_TRUE(AllClose(db_f, db_u, 1e-4f, 1e-3f))
          << SimdLevelName(level) << " relu=" << relu << " db";
    }
  }
}

TEST(SimdFusedOpsTest, SegmentMeanGradcheckAtEveryLevel) {
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    Rng rng(33);
    Parameter table("t", Tensor::GlorotUniform(6, 9, &rng));
    const std::vector<int32_t> offsets = {0, 2, 2, 5};
    const std::vector<int32_t> indices = {0, 3, 1, 1, 5};
    std::vector<float> targets = {0.3f, -0.2f, 0.9f};
    auto loss_fn = [&](bool compute_grad) {
      Tape tape;
      Tape::VarId t = tape.Leaf(&table);
      Tape::VarId sm = tape.SegmentMean(t, &offsets, &indices);
      Tensor ones = Tensor::Full(9, 1, 1.0f);
      Tape::VarId pred = tape.MatMul(sm, tape.Constant(ones));
      Tape::VarId loss = tape.MseLoss(pred, &targets);
      if (compute_grad) tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
      return tape.value(loss).scalar();
    };
    EXPECT_LT(testing::MaxGradError(&table, loss_fn), 2e-2f)
        << SimdLevelName(level);
  }
}

TEST(SimdFusedOpsTest, MlpForwardIdenticalAcrossFusionAtEveryLevel) {
  // The Mlp now records LinearRelu nodes; its output must match the same
  // weights applied through the unfused op chain.
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    Rng rng(34);
    Mlp mlp("m", {5, 8, 3}, &rng);
    const Tensor x = RandomTensor(13, 5, &rng);
    Tape tape;
    Tape::VarId out = mlp.Forward(&tape, tape.Constant(x));
    std::vector<Parameter*> params;
    mlp.CollectParameters(&params);
    ASSERT_EQ(params.size(), 4u);  // 2 layers x (W, b)
    Tape tape2;
    Tape::VarId h = tape2.Constant(x);
    Tape::VarId w0 = tape2.Leaf(params[0]);
    Tape::VarId b0 = tape2.Leaf(params[1]);
    h = tape2.Relu(tape2.AddBias(tape2.MatMul(h, w0), b0));
    Tape::VarId w1 = tape2.Leaf(params[2]);
    Tape::VarId b1 = tape2.Leaf(params[3]);
    h = tape2.AddBias(tape2.MatMul(h, w1), b1);
    EXPECT_TRUE(AllClose(tape.value(out), tape2.value(h), 1e-5f, 1e-4f))
        << SimdLevelName(level);
  }
}

TEST(SimdFusedOpsTest, OptimizersBitIdenticalAcrossLevels) {
  if (!SimdAvx2Supported()) {
    GTEST_SKIP() << "AVX2 not available";
  }
  // One Adam + ClipGradNorm step at each level from identical state: the
  // optimizer kernels are in the bit-identical group; ClipGradNorm's norm
  // uses sum_squares (tolerance group), so compare with a tight bound.
  auto run = [&](SimdLevel level, Tensor* out) {
    ScopedSimdLevel guard(level);
    Rng rng(35);
    Parameter p("p", Tensor::GlorotUniform(17, 9, &rng));
    for (int64_t i = 0; i < p.grad.size(); ++i) {
      p.grad[i] = rng.UniformReal(-3.0f, 3.0f);
    }
    Adam adam({&p}, 1e-2f, 0.9f, 0.999f, 1e-8f, 0.01f);
    adam.ClipGradNorm(1.0f);
    adam.Step();
    *out = p.value;
  };
  Tensor scalar_w, avx2_w;
  run(SimdLevel::kScalar, &scalar_w);
  run(SimdLevel::kAvx2, &avx2_w);
  EXPECT_TRUE(AllClose(avx2_w, scalar_w, 1e-6f, 1e-6f));
}

}  // namespace
}  // namespace grimp
