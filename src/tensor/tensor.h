#ifndef GRIMP_TENSOR_TENSOR_H_
#define GRIMP_TENSOR_TENSOR_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace grimp {

// A dense, row-major, rank-2 float tensor (scalars are 1x1, vectors 1xN or
// Nx1). Rank 2 covers everything GRIMP needs: batched training vectors are
// laid out as N x (C*D) with explicit block ops (see tape.h).
//
// Storage is an exact-size heap buffer the tensor owns. ResizeUninit and
// copy-assignment keep it whenever its capacity suffices, so a tensor that
// is refilled step after step — a tape node slot (tape.h) or a caller's
// scratch — stops touching the heap once it has seen its largest shape.
class Tensor {
 public:
  Tensor() = default;
  Tensor(int64_t rows, int64_t cols) {
    GRIMP_CHECK(rows >= 0 && cols >= 0);
    AcquireBuffer(rows, cols);
    if (data_ != nullptr) std::fill(data_, data_ + size(), 0.0f);
  }

  ~Tensor() { ReleaseBuffer(); }

  Tensor(const Tensor& other) {
    AcquireBuffer(other.rows_, other.cols_);
    if (data_ != nullptr) {
      std::memcpy(data_, other.data_, static_cast<size_t>(size()) *
                                          sizeof(float));
    }
  }
  // Keeps this tensor's buffer when it is large enough (see ResizeUninit).
  Tensor& operator=(const Tensor& other) {
    if (this == &other) return *this;
    ResizeUninit(other.rows_, other.cols_);
    if (!other.empty()) {
      std::memcpy(data_, other.data_, static_cast<size_t>(size()) *
                                          sizeof(float));
    }
    return *this;
  }
  Tensor(Tensor&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_),
        capacity_(other.capacity_) {
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_ = nullptr;
    other.capacity_ = 0;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this == &other) return *this;
    ReleaseBuffer();
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = other.data_;
    capacity_ = other.capacity_;
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_ = nullptr;
    other.capacity_ = 0;
    return *this;
  }

  static Tensor Zeros(int64_t rows, int64_t cols) { return Tensor(rows, cols); }
  // Skips the zero-fill; contents are unspecified. Only for outputs whose
  // every element is written before being read (GEMM outputs, concat, ...).
  static Tensor Uninit(int64_t rows, int64_t cols) {
    GRIMP_CHECK(rows >= 0 && cols >= 0);
    Tensor t;
    t.AcquireBuffer(rows, cols);
    return t;
  }
  static Tensor Full(int64_t rows, int64_t cols, float value);
  // A read-only view of `other`'s buffer: no copy and no ownership. `other`
  // must outlive the view and not change while it is read, and nothing may
  // write through the view. ResizeUninit to a nonzero size and assignment
  // give the tensor a buffer of its own again.
  static Tensor View(const Tensor& other) {
    Tensor t;
    t.rows_ = other.rows_;
    t.cols_ = other.cols_;
    t.data_ = const_cast<float*>(other.data_);
    return t;
  }
  // Reshapes to rows x cols with unspecified contents, keeping the buffer
  // when its capacity suffices. A scratch tensor that follows varying batch
  // shapes stops allocating once it has seen the largest.
  void ResizeUninit(int64_t rows, int64_t cols) {
    GRIMP_CHECK(rows >= 0 && cols >= 0);
    if (rows * cols > capacity_) {
      ReleaseBuffer();
      AcquireBuffer(rows, cols);
    }
    rows_ = rows;
    cols_ = cols;
  }
  static Tensor Scalar(float value);
  // Glorot/Xavier uniform initialization in [-limit, limit],
  // limit = sqrt(6 / (fan_in + fan_out)).
  static Tensor GlorotUniform(int64_t rows, int64_t cols, Rng* rng);
  static Tensor RandomNormal(int64_t rows, int64_t cols, float stddev,
                             Rng* rng);
  static Tensor FromVector(int64_t rows, int64_t cols,
                           std::vector<float> values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& at(int64_t r, int64_t c) {
    GRIMP_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(int64_t r, int64_t c) const {
    GRIMP_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[r * cols_ + c];
  }
  float& operator[](int64_t i) {
    GRIMP_DCHECK(i >= 0 && i < size());
    return data_[i];
  }
  float operator[](int64_t i) const {
    GRIMP_DCHECK(i >= 0 && i < size());
    return data_[i];
  }

  // Scalar access; requires size() == 1.
  float scalar() const {
    GRIMP_CHECK_EQ(size(), 1);
    return data_[0];
  }

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void Fill(float value);
  void Zero() { Fill(0.0f); }

  // In-place y += alpha * x (shapes must match).
  void Axpy(float alpha, const Tensor& x);

  // Frobenius-norm helpers.
  float SumAbs() const;
  float Sum() const;
  float MaxAbs() const;

  std::string ShapeString() const;
  // Debug dump (small tensors only).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  void AcquireBuffer(int64_t rows, int64_t cols) {
    rows_ = rows;
    cols_ = cols;
    const int64_t n = rows * cols;
    if (n > 0) {
      data_ = new float[static_cast<size_t>(n)];
      capacity_ = n;
    }
  }
  void ReleaseBuffer() {
    if (capacity_ > 0) delete[] data_;
    data_ = nullptr;
    capacity_ = 0;
  }

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  float* data_ = nullptr;
  int64_t capacity_ = 0;  // 0 with a non-null data_: a View
};

// result = a * b (matrix product). Shapes: (M x K) * (K x N) -> (M x N).
// Runs on the dispatched SIMD kernel table (see tensor/simd.h): the
// packed-B panel micro-kernel, or the row-lane one for outputs under 16
// columns and for A^T, multi-threaded over row ranges
// (common/thread_pool.h); accumulation order over K is fixed, so results
// are identical at every thread count and either kernel.
Tensor MatMul(const Tensor& a, const Tensor& b);
// *out = a * b into an existing M x N tensor.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out);
// result = relu?(a * b + bias), with the bias row-broadcast add (and the
// optional ReLU) fused into the GEMM epilogue while the C tile is still in
// registers. bias must have b.cols() elements.
Tensor MatMulFused(const Tensor& a, const Tensor& b, const Tensor& bias,
                   bool relu);
// Out-parameter form: writes into *out, which must already be M x N, so
// a caller fanning GEMMs out on the pool takes every buffer beforehand.
void MatMulFused(const Tensor& a, const Tensor& b, const Tensor& bias,
                 bool relu, Tensor* out);
// result = a^T * b. Shapes: (K x M)^T * (K x N) -> (M x N).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
// *out += a^T * b (accumulating epilogue; serves gradient accumulation
// without a temporary + Axpy round-trip). out must already be M x N.
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out);
// result = a * b^T. Shapes: (M x K) * (N x K)^T -> (M x N).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
// *out = a * b^T into an existing M x N tensor.
void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* out);
// *out += a * b^T.
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out);

// Single-threaded triple-loop reference kernels. Retained as the ground
// truth the blocked kernels are tested/benchmarked against.
Tensor MatMulNaive(const Tensor& a, const Tensor& b);
Tensor MatMulTransANaive(const Tensor& a, const Tensor& b);
Tensor MatMulTransBNaive(const Tensor& a, const Tensor& b);

// |a - b| <= atol + rtol * |b| elementwise (numpy-style mixed tolerance;
// rtol keeps large-magnitude comparisons meaningful).
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 0.0f);

}  // namespace grimp

#endif  // GRIMP_TENSOR_TENSOR_H_
