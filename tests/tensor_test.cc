#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace grimp {
namespace {

TEST(TensorTest, ConstructionAndFill) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
  t.Fill(2.5f);
  EXPECT_EQ(t.at(1, 2), 2.5f);
  t.Zero();
  EXPECT_EQ(t.SumAbs(), 0.0f);
}

TEST(TensorTest, ScalarAndFull) {
  Tensor s = Tensor::Scalar(4.0f);
  EXPECT_EQ(s.scalar(), 4.0f);
  Tensor f = Tensor::Full(2, 2, -1.0f);
  EXPECT_EQ(f.Sum(), -4.0f);
  EXPECT_EQ(f.MaxAbs(), 1.0f);
}

TEST(TensorTest, FromVectorLayoutIsRowMajor) {
  Tensor t = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
}

TEST(TensorTest, AxpyAccumulates) {
  Tensor a = Tensor::Full(2, 2, 1.0f);
  Tensor b = Tensor::Full(2, 2, 3.0f);
  a.Axpy(2.0f, b);
  EXPECT_EQ(a.at(0, 0), 7.0f);
}

TEST(TensorTest, GlorotUniformIsBounded) {
  Rng rng(3);
  Tensor t = Tensor::GlorotUniform(10, 20, &rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t[i]), limit);
  }
  // Not all zero.
  EXPECT_GT(t.SumAbs(), 0.0f);
}

TEST(TensorTest, MatMulMatchesHandComputed) {
  Tensor a = Tensor::FromVector(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.rows(), 2);
  ASSERT_EQ(c.cols(), 2);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorTest, TransposedMatMulsAgreeWithExplicitTranspose) {
  Rng rng(5);
  Tensor a = Tensor::GlorotUniform(4, 3, &rng);
  Tensor b = Tensor::GlorotUniform(4, 5, &rng);
  // a^T * b via MatMulTransA.
  Tensor at(3, 4);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 3; ++c) at.at(c, r) = a.at(r, c);
  }
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(at, b)));

  Tensor x = Tensor::GlorotUniform(2, 3, &rng);
  Tensor y = Tensor::GlorotUniform(5, 3, &rng);
  Tensor yt(3, 5);
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 3; ++c) yt.at(c, r) = y.at(r, c);
  }
  EXPECT_TRUE(AllClose(MatMulTransB(x, y), MatMul(x, yt)));
}

TEST(TensorTest, ResizeUninitKeepsTheBufferWithinCapacity) {
  Tensor t(8, 16);
  const float* buffer = t.data();
  t.ResizeUninit(5, 20);  // 100 <= 128 floats: same buffer, new shape
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 20);
  EXPECT_EQ(t.data(), buffer);
  t.ResizeUninit(0, 20);
  EXPECT_EQ(t.size(), 0);
  t.ResizeUninit(64, 64);  // past the capacity: a bigger buffer
  EXPECT_EQ(t.size(), 64 * 64);
  t.Fill(1.0f);
  EXPECT_EQ(t.Sum(), 64.0f * 64.0f);
}

TEST(TensorTest, OutParameterGemmsMatchTheReturningForms) {
  Rng rng(6);
  const Tensor a = Tensor::GlorotUniform(70, 9, &rng);
  const Tensor b = Tensor::GlorotUniform(9, 20, &rng);
  const Tensor bias = Tensor::GlorotUniform(1, 20, &rng);
  const Tensor bt = Tensor::GlorotUniform(20, 9, &rng);
  Tensor fused = Tensor::Full(70, 20, 5.0f);
  MatMulFused(a, b, bias, /*relu=*/false, &fused);
  const Tensor fused_ref = MatMulFused(a, b, bias, /*relu=*/false);
  Tensor trans_b = Tensor::Full(70, 20, 5.0f);
  MatMulTransB(a, bt, &trans_b);
  const Tensor trans_b_ref = MatMulTransB(a, bt);
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], fused_ref[i]);
    EXPECT_EQ(trans_b[i], trans_b_ref[i]);
  }
}

TEST(TensorTest, AllCloseDetectsShapeAndValueMismatch) {
  Tensor a = Tensor::Full(2, 2, 1.0f);
  Tensor b = Tensor::Full(2, 2, 1.0f);
  EXPECT_TRUE(AllClose(a, b));
  b.at(1, 1) += 1e-3f;
  EXPECT_FALSE(AllClose(a, b, 1e-5f));
  EXPECT_FALSE(AllClose(a, Tensor::Full(2, 3, 1.0f)));
}

TEST(TensorTest, AllCloseRelativeToleranceScalesWithMagnitude) {
  // 1e6 vs 1e6 + 60: fails any reasonable atol, passes rtol 1e-4.
  Tensor a = Tensor::Full(2, 2, 1.0e6f);
  Tensor b = Tensor::Full(2, 2, 1.0e6f + 60.0f);
  EXPECT_FALSE(AllClose(a, b, 1e-5f));
  EXPECT_TRUE(AllClose(a, b, 1e-5f, 1e-4f));
  // rtol alone must not mask absolute errors near zero.
  Tensor c = Tensor::Full(2, 2, 0.0f);
  Tensor d = Tensor::Full(2, 2, 0.01f);
  EXPECT_FALSE(AllClose(c, d, 1e-5f, 1e-4f));
}

// The blocked parallel GEMMs must agree with the retained naive reference
// over odd/degenerate shapes (vectors, non-multiple-of-tile sizes) at
// 1 thread and N threads.
TEST(TensorTest, BlockedGemmMatchesNaiveAcrossShapesAndThreadCounts) {
  Rng rng(11);
  const struct { int64_t m, k, n; } shapes[] = {
      {1, 1, 1},   {1, 17, 1},  {17, 1, 5},  {1, 5, 33},   {3, 3, 3},
      {4, 8, 8},   {5, 9, 11},  {64, 64, 64}, {65, 33, 17}, {128, 7, 130},
      {33, 128, 9}, {100, 31, 8},
  };
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const auto& s : shapes) {
      Tensor a = Tensor::RandomNormal(s.m, s.k, 1.0f, &rng);
      Tensor b = Tensor::RandomNormal(s.k, s.n, 1.0f, &rng);
      EXPECT_TRUE(AllClose(MatMul(a, b), MatMulNaive(a, b), 1e-5f, 1e-4f))
          << "MatMul " << s.m << "x" << s.k << "x" << s.n
          << " threads=" << threads;

      Tensor at = Tensor::RandomNormal(s.k, s.m, 1.0f, &rng);
      EXPECT_TRUE(AllClose(MatMulTransA(at, b), MatMulTransANaive(at, b),
                           1e-5f, 1e-4f))
          << "MatMulTransA " << s.m << "x" << s.k << "x" << s.n
          << " threads=" << threads;

      Tensor bt = Tensor::RandomNormal(s.n, s.k, 1.0f, &rng);
      EXPECT_TRUE(AllClose(MatMulTransB(a, bt), MatMulTransBNaive(a, bt),
                           1e-5f, 1e-4f))
          << "MatMulTransB " << s.m << "x" << s.k << "x" << s.n
          << " threads=" << threads;
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

// Fixed chunk boundaries mean the parallel kernel is bit-identical across
// thread counts, not merely close.
TEST(TensorTest, BlockedGemmIsBitIdenticalAcrossThreadCounts) {
  Rng rng(13);
  Tensor a = Tensor::RandomNormal(257, 96, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(96, 70, 1.0f, &rng);
  ThreadPool::SetGlobalThreads(1);
  Tensor c1 = MatMul(a, b);
  for (int threads : {2, 5, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    Tensor cn = MatMul(a, b);
    ASSERT_TRUE(cn.SameShape(c1));
    for (int64_t i = 0; i < cn.size(); ++i) {
      ASSERT_EQ(cn[i], c1[i]) << "threads=" << threads << " i=" << i;
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Short, wide and ragged GEMMs split their columns into panel-aligned
// blocks when they have fewer 64-row chunks than the pool has threads (the
// sampled head's 1000-class output layer, its dX and its TransA dW). Every
// form and epilogue must keep its bits at every thread count, including an
// odd pool that splits the columns unevenly; n is never a multiple of 16.
TEST(TensorTest, ColumnSplitGemmsAreBitIdenticalAcrossThreadCounts) {
  const struct { int64_t m, k, n; } shapes[] = {
      {128, 64, 1000}, {64, 128, 1000}, {128, 1000, 64},
      {32, 400, 40},   {100, 37, 333},  {200, 70, 21},
  };
  // Each form computes into a copy of `init` (read by the accumulating
  // ones).
  struct Form {
    std::string name;
    std::function<void(const Tensor& a, const Tensor& b, const Tensor& bias,
                       Tensor* out)>
        run;
  };
  const std::vector<Form> forms = {
      {"plain", [](const Tensor& a, const Tensor& b, const Tensor&,
                   Tensor* out) { MatMul(a, b, out); }},
      {"bias", [](const Tensor& a, const Tensor& b, const Tensor& bias,
                  Tensor* out) { MatMulFused(a, b, bias, false, out); }},
      {"bias_relu", [](const Tensor& a, const Tensor& b, const Tensor& bias,
                       Tensor* out) { MatMulFused(a, b, bias, true, out); }},
      // A zero bias: the ReLU alone decides the result's signs.
      {"relu", [](const Tensor& a, const Tensor& b, const Tensor& bias,
                  Tensor* out) {
         MatMulFused(a, b, Tensor::Zeros(1, bias.cols()), true, out);
       }},
      {"trans_a", [](const Tensor& a, const Tensor& b, const Tensor&,
                     Tensor* out) { *out = MatMulTransA(a, b); }},
      {"trans_a_acc", [](const Tensor& a, const Tensor& b, const Tensor&,
                         Tensor* out) { MatMulTransAAcc(a, b, out); }},
      {"trans_b", [](const Tensor& a, const Tensor& b, const Tensor&,
                     Tensor* out) { MatMulTransB(a, b, out); }},
      {"trans_b_acc", [](const Tensor& a, const Tensor& b, const Tensor&,
                         Tensor* out) { MatMulTransBAcc(a, b, out); }},
  };
  const int saved_threads = ThreadPool::GlobalThreads();
  Rng rng(19);
  for (const auto& s : shapes) {
    // Operands in each form's layout: A is m x k (k x m for TransA), B is
    // k x n (n x k for TransB).
    const Tensor a = Tensor::RandomNormal(s.m, s.k, 1.0f, &rng);
    const Tensor at = Tensor::RandomNormal(s.k, s.m, 1.0f, &rng);
    const Tensor b = Tensor::RandomNormal(s.k, s.n, 1.0f, &rng);
    const Tensor bt = Tensor::RandomNormal(s.n, s.k, 1.0f, &rng);
    const Tensor bias = Tensor::RandomNormal(1, s.n, 1.0f, &rng);
    const Tensor init = Tensor::RandomNormal(s.m, s.n, 1.0f, &rng);
    for (const Form& form : forms) {
      const bool trans_a = form.name.rfind("trans_a", 0) == 0;
      const bool trans_b = form.name.rfind("trans_b", 0) == 0;
      const auto compute = [&](int threads) {
        ThreadPool::SetGlobalThreads(threads);
        Tensor out = init;
        form.run(trans_a ? at : a, trans_b ? bt : b, bias, &out);
        return out;
      };
      const Tensor one = compute(1);
      // The single-thread result is one kernel call over the whole output;
      // check it is the product before holding the split ones to it.
      Tensor ref = trans_a ? MatMulTransANaive(at, b)
                           : trans_b ? MatMulTransBNaive(a, bt)
                                     : MatMulNaive(a, b);
      if (form.name == "bias" || form.name == "bias_relu") {
        for (int64_t r = 0; r < ref.rows(); ++r) {
          for (int64_t c = 0; c < ref.cols(); ++c) ref.at(r, c) += bias[c];
        }
      }
      if (form.name == "bias_relu" || form.name == "relu") {
        for (int64_t i = 0; i < ref.size(); ++i) {
          ref[i] = std::max(ref[i], 0.0f);
        }
      }
      if (form.name.find("_acc") != std::string::npos) ref.Axpy(1.0f, init);
      EXPECT_TRUE(AllClose(one, ref, 1e-4f, 1e-4f))
          << form.name << " " << s.m << "x" << s.k << "x" << s.n;
      for (int threads : {2, 3, 4, 8}) {
        EXPECT_TRUE(SameBits(compute(threads), one))
            << form.name << " " << s.m << "x" << s.k << "x" << s.n
            << " threads=" << threads;
      }
    }
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

TEST(TensorTest, ParallelAxpyMatchesSerial) {
  Rng rng(17);
  // Above kParallelThreshold so the parallel path actually engages.
  Tensor x = Tensor::RandomNormal(130, 64, 1.0f, &rng);
  Tensor serial = Tensor::Full(130, 64, 0.5f);
  Tensor parallel = serial;
  ThreadPool::SetGlobalThreads(1);
  serial.Axpy(2.0f, x);
  ThreadPool::SetGlobalThreads(4);
  parallel.Axpy(2.0f, x);
  ThreadPool::SetGlobalThreads(1);
  for (int64_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace grimp
