#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace grimp {

Tensor Tensor::Full(int64_t rows, int64_t cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t(1, 1);
  t[0] = value;
  return t;
}

Tensor Tensor::GlorotUniform(int64_t rows, int64_t cols, Rng* rng) {
  Tensor t(rows, cols);
  const float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = rng->UniformReal(-limit, limit);
  }
  return t;
}

Tensor Tensor::RandomNormal(int64_t rows, int64_t cols, float stddev,
                            Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->NextGaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::FromVector(int64_t rows, int64_t cols,
                          std::vector<float> values) {
  GRIMP_CHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  Tensor t = Tensor::Uninit(rows, cols);
  if (!values.empty()) {
    std::memcpy(t.data_, values.data(), values.size() * sizeof(float));
  }
  return t;
}

void Tensor::Fill(float value) {
  if (data_ != nullptr) std::fill(data_, data_ + size(), value);
}

void Tensor::Axpy(float alpha, const Tensor& x) {
  GRIMP_CHECK(SameShape(x));
  const float* xs = x.data();
  float* ys = data();
  const int64_t n = size();
  const simd::KernelTable& kt = simd::Kernels();
  if (ShouldParallelize(n)) {
    ParallelFor(0, n, kParallelThreshold, [=, &kt](int64_t b, int64_t e) {
      kt.axpy(e - b, alpha, xs + b, ys + b);
    });
  } else {
    kt.axpy(n, alpha, xs, ys);
  }
}

float Tensor::SumAbs() const {
  float acc = 0.0f;
  for (int64_t i = 0; i < size(); ++i) acc += std::fabs(data_[i]);
  return acc;
}

float Tensor::Sum() const {
  float acc = 0.0f;
  for (int64_t i = 0; i < size(); ++i) acc += data_[i];
  return acc;
}

float Tensor::MaxAbs() const {
  float acc = 0.0f;
  for (int64_t i = 0; i < size(); ++i) {
    acc = std::max(acc, std::fabs(data_[i]));
  }
  return acc;
}

std::string Tensor::ShapeString() const {
  return "[" + std::to_string(rows_) + " x " + std::to_string(cols_) + "]";
}

std::string Tensor::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << ShapeString() << "\n";
  for (int64_t r = 0; r < std::min<int64_t>(rows_, max_rows); ++r) {
    for (int64_t c = 0; c < std::min<int64_t>(cols_, max_cols); ++c) {
      os << at(r, c) << (c + 1 == cols_ ? "" : " ");
    }
    if (cols_ > max_cols) os << "...";
    os << "\n";
  }
  if (rows_ > max_rows) os << "...\n";
  return os.str();
}

namespace {

// Rows per parallel work unit.
constexpr int64_t kGemmRowGrain = 64;
// Below this many multiply-adds, pool dispatch costs more than it saves.
constexpr int64_t kGemmParallelFlops = 1 << 16;
// Narrower outputs take the row-lane kernel: the 16-wide column panel
// would compute mostly padding.
constexpr int64_t kGemmNarrowCols = 16;

// Dispatches C = A * B (+ epilogue) over (row chunk x column block) units,
// in parallel when the problem is big enough to amortize the pool. A is
// row-major M x K (leading dimension lda) when a_transposed is false,
// row-major K x M when true (multiplies by A^T, walking A's columns); B
// likewise is K x N or, when b_transposed, N x K (ldb). The shape picks
// the kernel: the transposed-A walk and outputs narrower than
// kGemmNarrowCols go to gemm_rows, which reads B in place; the rest to
// gemm over B packed into nr-wide panels.
//
// Rows split into kGemmRowGrain chunks. A GEMM with fewer than two row
// chunks per pool thread (a short, wide one: a 128-row batch against a
// 1000-class output layer, or a TransA weight gradient with 64 output
// rows) also splits its columns, into blocks of whole nr-wide panels, so
// it still fans out (not inside a pool lane, where the units would run
// inline). A unit runs the kernel on its rows with B, C and the bias
// offset to its first column. Each C element accumulates over p in
// ascending order whatever the kernel and the unit it falls in, so the
// result is bitwise independent of the tiling and of the thread count.
void GemmDispatch(const float* a, int64_t lda, bool a_transposed,
                  const float* b, int64_t ldb, bool b_transposed, float* c,
                  int64_t ldc, int64_t m, int64_t k, int64_t n,
                  const simd::GemmEpilogue& ep = {}) {
  static Counter& calls =
      MetricsRegistry::Global().GetCounter("gemm.calls");
  static Counter& parallel_calls =
      MetricsRegistry::Global().GetCounter("gemm.parallel_calls");
  static Counter& fused_calls =
      MetricsRegistry::Global().GetCounter("tensor.simd.gemm_fused");
  static Histogram& flops_hist =
      MetricsRegistry::Global().GetHistogram("gemm.flops");
  const int64_t flops = m * k * n;
  calls.Increment();
  flops_hist.Record(static_cast<double>(flops));
  if (ep.bias != nullptr || ep.relu) fused_calls.Increment();
  if (m == 0 || n == 0) return;
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t nr = kt.gemm_nr;
  // A as a[i * as_i + p * as_p].
  const int64_t as_i = a_transposed ? 1 : lda;
  const int64_t as_p = a_transposed ? lda : 1;
  // fn(row_begin, row_end, col_begin, col_end) over the units.
  const auto run = [&](const auto& fn) {
    const int threads = ThreadPool::GlobalThreads();
    if (flops < kGemmParallelFlops || threads <= 1) {
      fn(0, m, 0, n);
      return;
    }
    parallel_calls.Increment();
    const int64_t row_chunks = (m + kGemmRowGrain - 1) / kGemmRowGrain;
    const int64_t panels = (n + nr - 1) / nr;
    // Two units per thread, so the share of a worker that wakes late is
    // taken up by the others. Inside a pool lane the units run inline, so
    // the columns stay whole: each block would re-read the row chunk of A.
    const int64_t col_blocks =
        InParallelRegion()
            ? 1
            : std::min(panels, (2 * threads + row_chunks - 1) / row_chunks);
    const int64_t block_cols = (panels + col_blocks - 1) / col_blocks * nr;
    const int64_t blocks = (n + block_cols - 1) / block_cols;
    ParallelFor(0, row_chunks * blocks, 1, [&](int64_t u0, int64_t u1) {
      for (int64_t u = u0; u < u1; ++u) {
        const int64_t r0 = u / blocks * kGemmRowGrain;
        const int64_t j0 = u % blocks * block_cols;
        fn(r0, std::min(m, r0 + kGemmRowGrain), j0,
           std::min(n, j0 + block_cols));
      }
    });
  };
  // The epilogue of the columns from j0 on.
  const auto ep_from = [&ep](int64_t j0) {
    simd::GemmEpilogue e = ep;
    if (e.bias != nullptr) e.bias += j0;
    return e;
  };
  if (a_transposed || n < kGemmNarrowCols) {
    const int64_t bs_p = b_transposed ? 1 : ldb;
    const int64_t bs_j = b_transposed ? ldb : 1;
    run([&](int64_t r0, int64_t r1, int64_t j0, int64_t j1) {
      kt.gemm_rows(a, as_i, as_p, b + j0 * bs_j, bs_p, bs_j, c + j0, ldc, r0,
                   r1, k, j1 - j0, ep_from(j0));
    });
    return;
  }
  // Pack B once into nr-wide zero-padded panels. The scratch is per thread:
  // it only grows, so a steady stream of GEMMs takes no transient buffer
  // from the heap.
  const int64_t panels = (n + nr - 1) / nr;
  thread_local std::vector<float> bpack;
  const auto pack_floats = static_cast<size_t>(panels * nr * k);
  if (bpack.size() < pack_floats) bpack.resize(pack_floats);
  if (k > 0) {
    if (b_transposed) {
      kt.gemm_pack_bt(b, ldb, k, n, bpack.data());
    } else {
      kt.gemm_pack_b(b, ldb, k, n, bpack.data());
    }
  }
  const float* bp = bpack.data();
  // Column block j0 starts at a panel boundary: its panels follow at
  // bp + (j0 / nr) * k * nr.
  run([&](int64_t r0, int64_t r1, int64_t j0, int64_t j1) {
    kt.gemm(a, as_i, as_p, bp + j0 / nr * k * nr, c + j0, ldc, r0, r1, k,
            j1 - j0, ep_from(j0));
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  // The panel kernel writes every element of C, so the zero-fill is skipped.
  Tensor out = Tensor::Uninit(a.rows(), b.cols());
  MatMul(a, b, &out);
  return out;
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out) {
  GRIMP_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  GRIMP_CHECK(out->rows() == m && out->cols() == n);
  GemmDispatch(a.data(), k, /*a_transposed=*/false, b.data(), n,
               /*b_transposed=*/false, out->data(), n, m, k, n);
}

Tensor MatMulFused(const Tensor& a, const Tensor& b, const Tensor& bias,
                   bool relu) {
  Tensor out = Tensor::Uninit(a.rows(), b.cols());
  MatMulFused(a, b, bias, relu, &out);
  return out;
}

void MatMulFused(const Tensor& a, const Tensor& b, const Tensor& bias,
                 bool relu, Tensor* out) {
  GRIMP_CHECK_EQ(a.cols(), b.rows());
  GRIMP_CHECK_EQ(bias.size(), b.cols());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  GRIMP_CHECK(out->rows() == m && out->cols() == n);
  simd::GemmEpilogue ep;
  ep.bias = bias.data();
  ep.relu = relu;
  GemmDispatch(a.data(), k, /*a_transposed=*/false, b.data(), n,
               /*b_transposed=*/false, out->data(), n, m, k, n, ep);
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  GRIMP_CHECK_EQ(a.rows(), b.rows());
  const int64_t k = a.rows();
  const int64_t m = a.cols();
  const int64_t n = b.cols();
  Tensor out = Tensor::Uninit(m, n);
  GemmDispatch(a.data(), m, /*a_transposed=*/true, b.data(), n,
               /*b_transposed=*/false, out.data(), n, m, k, n);
  return out;
}

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  GRIMP_CHECK_EQ(a.rows(), b.rows());
  const int64_t k = a.rows();
  const int64_t m = a.cols();
  const int64_t n = b.cols();
  GRIMP_CHECK(out->rows() == m && out->cols() == n);
  simd::GemmEpilogue ep;
  ep.accumulate = true;
  GemmDispatch(a.data(), m, /*a_transposed=*/true, b.data(), n,
               /*b_transposed=*/false, out->data(), n, m, k, n, ep);
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  Tensor out = Tensor::Uninit(a.rows(), b.rows());
  MatMulTransB(a, b, &out);
  return out;
}

void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* out) {
  GRIMP_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  GRIMP_CHECK(out->rows() == m && out->cols() == n);
  // The pack_bt kernel builds the B^T panels straight from the N x K
  // operand; O(k*n) pack vs O(m*k*n) math, no materialized transpose.
  GemmDispatch(a.data(), k, /*a_transposed=*/false, b.data(), k,
               /*b_transposed=*/true, out->data(), n, m, k, n);
}

void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  GRIMP_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  GRIMP_CHECK(out->rows() == m && out->cols() == n);
  simd::GemmEpilogue ep;
  ep.accumulate = true;
  GemmDispatch(a.data(), k, /*a_transposed=*/false, b.data(), k,
               /*b_transposed=*/true, out->data(), n, m, k, n, ep);
}

Tensor MatMulNaive(const Tensor& a, const Tensor& b) {
  GRIMP_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  Tensor out(m, n);
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();
  // ikj loop order for cache-friendly access to b and out.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = ad[i * k + p];
      const float* brow = bd + p * n;
      float* orow = od + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor MatMulTransANaive(const Tensor& a, const Tensor& b) {
  GRIMP_CHECK_EQ(a.rows(), b.rows());
  const int64_t k = a.rows();
  const int64_t m = a.cols();
  const int64_t n = b.cols();
  Tensor out(m, n);
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = ad + p * m;
    const float* brow = bd + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* orow = od + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor MatMulTransBNaive(const Tensor& a, const Tensor& b) {
  GRIMP_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  Tensor out(m, n);
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = ad + i * k;
    float* orow = od + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = bd + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] = acc;
    }
  }
  return out;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    if (!(diff <= atol + rtol * std::fabs(b[i]))) return false;
  }
  return true;
}

}  // namespace grimp
