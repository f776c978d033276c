#include <gtest/gtest.h>

#include <cmath>
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
