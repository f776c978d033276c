// Portable reference kernels. Every vectorized table is tested against
// this one; it is also the fallback on CPUs without AVX2 and the forced
// level under GRIMP_SIMD=scalar. Written with fixed trip counts and packed
// operands so the compiler can autovectorize at the baseline ISA.

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd.h"

namespace grimp {
namespace simd {
namespace {

// Micro-tile geometry: accumulator tile must fit baseline SSE2 registers
// (4x8 floats = 8 xmm).
constexpr int64_t kMR = 4;
constexpr int64_t kNR = 8;

void PackB(const float* b, int64_t ldb, int64_t k, int64_t n, float* bp) {
  for (int64_t j0 = 0; j0 < n; j0 += kNR) {
    const int64_t w = std::min(kNR, n - j0);
    float* panel = bp + (j0 / kNR) * k * kNR;
    for (int64_t p = 0; p < k; ++p) {
      const float* src = b + p * ldb + j0;
      float* dst = panel + p * kNR;
      for (int64_t j = 0; j < w; ++j) dst[j] = src[j];
      for (int64_t j = w; j < kNR; ++j) dst[j] = 0.0f;
    }
  }
}

void PackBT(const float* b, int64_t ldb, int64_t k, int64_t n, float* bp) {
  // b is (n x k) row-major; packed[p, j] = b[j, p].
  for (int64_t j0 = 0; j0 < n; j0 += kNR) {
    const int64_t w = std::min(kNR, n - j0);
    float* panel = bp + (j0 / kNR) * k * kNR;
    for (int64_t j = 0; j < w; ++j) {
      const float* src = b + (j0 + j) * ldb;
      for (int64_t p = 0; p < k; ++p) panel[p * kNR + j] = src[p];
    }
    for (int64_t j = w; j < kNR; ++j) {
      for (int64_t p = 0; p < k; ++p) panel[p * kNR + j] = 0.0f;
    }
  }
}

void Gemm(const float* a, int64_t as_i, int64_t as_p, const float* bp,
          float* c, int64_t ldc, int64_t i_begin, int64_t i_end, int64_t k,
          int64_t n, const GemmEpilogue& ep) {
  // A panel scratch: kMR rows interleaved per-p so the inner loop reads it
  // contiguously whatever the A strides are (plain or transposed walk).
  // thread_local so pool workers each keep one buffer across calls.
  thread_local std::vector<float> apack;
  if (static_cast<int64_t>(apack.size()) < kMR * k) {
    apack.resize(static_cast<size_t>(kMR * k));
  }
  float* ap = apack.data();
  for (int64_t i0 = i_begin; i0 < i_end; i0 += kMR) {
    const int64_t mr = std::min(kMR, i_end - i0);
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t ii = 0; ii < mr; ++ii) {
        ap[p * kMR + ii] = a[(i0 + ii) * as_i + p * as_p];
      }
      for (int64_t ii = mr; ii < kMR; ++ii) ap[p * kMR + ii] = 0.0f;
    }
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t nr = std::min(kNR, n - j0);
      const float* panel = bp + (j0 / kNR) * k * kNR;
      float acc[kMR][kNR] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float* brow = panel + p * kNR;
        const float* arow = ap + p * kMR;
        for (int64_t ii = 0; ii < kMR; ++ii) {
          const float av = arow[ii];
          for (int64_t jj = 0; jj < kNR; ++jj) acc[ii][jj] += av * brow[jj];
        }
      }
      for (int64_t ii = 0; ii < mr; ++ii) {
        float* crow = c + (i0 + ii) * ldc + j0;
        for (int64_t jj = 0; jj < nr; ++jj) {
          float v = acc[ii][jj];
          if (ep.accumulate) v += crow[jj];
          if (ep.bias != nullptr) v += ep.bias[j0 + jj];
          if (ep.relu) v = v > 0.0f ? v : 0.0f;
          crow[jj] = v;
        }
      }
    }
  }
}

void GemmRows(const float* a, int64_t as_i, int64_t as_p, const float* b,
              int64_t bs_p, int64_t bs_j, float* c, int64_t ldc,
              int64_t i_begin, int64_t i_end, int64_t k, int64_t n,
              const GemmEpilogue& ep) {
  // Gemm's per-element arithmetic, one C row at a time in kNR-wide column
  // strips, reading A and B in place.
  for (int64_t i = i_begin; i < i_end; ++i) {
    for (int64_t j0 = 0; j0 < n; j0 += kNR) {
      const int64_t nr = std::min(kNR, n - j0);
      float acc[kNR] = {};
      for (int64_t p = 0; p < k; ++p) {
        const float av = a[i * as_i + p * as_p];
        const float* brow = b + p * bs_p + j0 * bs_j;
        for (int64_t jj = 0; jj < nr; ++jj) acc[jj] += av * brow[jj * bs_j];
      }
      float* crow = c + i * ldc + j0;
      for (int64_t jj = 0; jj < nr; ++jj) {
        float v = acc[jj];
        if (ep.accumulate) v += crow[jj];
        if (ep.bias != nullptr) v += ep.bias[j0 + jj];
        if (ep.relu) v = v > 0.0f ? v : 0.0f;
        crow[jj] = v;
      }
    }
  }
}

void ReluFwd(int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBwd(int64_t n, const float* g, const float* y, float* xg) {
  // Branchless select (no conditional store), so the loop vectorizes.
  for (int64_t i = 0; i < n; ++i) xg[i] += y[i] > 0.0f ? g[i] : 0.0f;
}

void ReluMask(int64_t n, const float* g, const float* y, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = y[i] > 0.0f ? g[i] : 0.0f;
}

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(int64_t n, float alpha, float* x) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

void ColSumAcc(int64_t rows, int64_t cols, const float* x, float* acc) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    for (int64_t c = 0; c < cols; ++c) acc[c] += row[c];
  }
}

double SumSquares(int64_t n, const float* x) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * x[i];
  }
  return acc;
}

void SegmentMeanFwd(const int32_t* offsets, const int32_t* indices,
                    const float* x, int64_t d, int64_t s_begin, int64_t s_end,
                    float* out) {
  for (int64_t s = s_begin; s < s_end; ++s) {
    float* orow = out + s * d;
    const int32_t begin = offsets[s];
    const int32_t end = offsets[s + 1];
    for (int64_t c = 0; c < d; ++c) orow[c] = 0.0f;
    if (begin == end) continue;
    const float inv = 1.0f / static_cast<float>(end - begin);
    for (int32_t e = begin; e < end; ++e) {
      const float* xrow = x + static_cast<int64_t>(indices[e]) * d;
      for (int64_t c = 0; c < d; ++c) orow[c] += xrow[c] * inv;
    }
  }
}

void RowSoftmax(int64_t rows, int64_t cols, const float* x, float* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    float* out = y + r * cols;
    float mx = row[0];
    for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      const float e = std::exp(row[c] - mx);
      out[c] = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (int64_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

// The attention kernels keep the exact per-element order of the tape op
// chain they replaced (row gather, block dot, row softmax, block weighted
// sum), including its `0 +` accumulator starts and its skips of zero
// weights. A zero block contributes exactly what the chain's
// zero rows did for finite values: a +0 score and nothing to any sum.
void AttentionScores(int64_t rows, int64_t d, const float* h, const float* a,
                     float scale, float* scores) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* v = h + r * d;
    float acc = 0.0f;
    for (int64_t k = 0; k < d; ++k) acc += v[k] * a[k];
    scores[r] = acc * scale;
  }
}

void AttentionFwd(int64_t n, int64_t nb, int64_t d, const float* h,
                  const int32_t* idx, const float* scores, float* alpha,
                  float* ctx) {
  for (int64_t i = 0; i < n; ++i) {
    const int32_t* rows = idx + i * nb;
    float* al = alpha + i * nb;
    for (int64_t c = 0; c < nb; ++c) {
      al[c] = rows[c] < 0 ? 0.0f : scores[rows[c]];
    }
    RowSoftmax(1, nb, al, al);
    float* out = ctx + i * d;
    for (int64_t k = 0; k < d; ++k) out[k] = 0.0f;
    for (int64_t c = 0; c < nb; ++c) {
      const float w = al[c];
      if (w == 0.0f || rows[c] < 0) continue;
      const float* v = h + static_cast<int64_t>(rows[c]) * d;
      for (int64_t k = 0; k < d; ++k) out[k] += w * v[k];
    }
  }
}

void AttentionBwd(int64_t n, int64_t nb, int64_t d, const float* h,
                  const int32_t* idx, const float* g, const float* alpha,
                  float scale, float* score_grad) {
  for (int64_t i = 0; i < n; ++i) {
    const int32_t* rows = idx + i * nb;
    const float* gi = g + i * d;
    const float* al = alpha + i * nb;
    float* sg = score_grad + i * nb;
    // dL/dalpha, then back through the softmax in place.
    for (int64_t c = 0; c < nb; ++c) {
      float dot = 0.0f;
      if (rows[c] >= 0) {
        const float* v = h + static_cast<int64_t>(rows[c]) * d;
        for (int64_t k = 0; k < d; ++k) dot += gi[k] * v[k];
      }
      sg[c] = 0.0f + dot;
    }
    float dot = 0.0f;
    for (int64_t c = 0; c < nb; ++c) dot += sg[c] * al[c];
    for (int64_t c = 0; c < nb; ++c) {
      sg[c] = (0.0f + al[c] * (sg[c] - dot)) * scale;
    }
  }
}

void AttentionQueryGrad(int64_t n, int64_t nb, int64_t d, const float* h,
                        const int32_t* idx, const float* score_grad,
                        float* a_grad) {
  for (int64_t i = 0; i < n * nb; ++i) {
    const float gb = score_grad[i];
    if (gb == 0.0f || idx[i] < 0) continue;
    const float* v = h + static_cast<int64_t>(idx[i]) * d;
    for (int64_t k = 0; k < d; ++k) a_grad[k] += gb * v[k];
  }
}

void AttentionInputGrad(int64_t d, int64_t count, const InputGradTerm* terms,
                        float* dst) {
  for (int64_t t = 0; t < count; ++t) {
    const InputGradTerm& term = terms[t];
    const float* g = term.g;
    if (term.a == nullptr) {
      for (int64_t k = 0; k < d; ++k) dst[k] += g[k];
    } else if (term.score_grad == 0.0f) {
      for (int64_t k = 0; k < d; ++k) dst[k] += 0.0f + term.alpha * g[k];
    } else {
      for (int64_t k = 0; k < d; ++k) {
        dst[k] += (0.0f + term.alpha * g[k]) + term.score_grad * term.a[k];
      }
    }
  }
}

double MseSum(int64_t n, const float* pred, const float* tgt,
              const float* mask, int64_t* n_valid) {
  double loss = 0.0;
  int64_t valid = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float m = mask == nullptr ? 1.0f : mask[i];
    if (m == 0.0f) continue;
    const float d = pred[i] - tgt[i];
    loss += static_cast<double>(d) * d;
    ++valid;
  }
  *n_valid = valid;
  return loss;
}

void MseBwd(int64_t n, float coeff, const float* pred, const float* tgt,
            const float* mask, float* pg) {
  for (int64_t i = 0; i < n; ++i) {
    const float m = mask == nullptr ? 1.0f : mask[i];
    if (m == 0.0f) continue;
    pg[i] += coeff * (pred[i] - tgt[i]);
  }
}

void AdamStep(int64_t n, float lr, float beta1, float beta2, float eps,
              float weight_decay, float bc1, float bc2, const float* g,
              float* m, float* v, float* w) {
  for (int64_t i = 0; i < n; ++i) {
    float gi = g[i];
    if (weight_decay != 0.0f) gi += weight_decay * w[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void SgdMomentum(int64_t n, float lr, float momentum, const float* g,
                 float* vel, float* w) {
  for (int64_t i = 0; i < n; ++i) {
    vel[i] = momentum * vel[i] + g[i];
    w[i] -= lr * vel[i];
  }
}

const KernelTable kScalarTable = {
    /*name=*/"scalar",
    /*gemm_nr=*/kNR,
    /*gemm_pack_b=*/PackB,
    /*gemm_pack_bt=*/PackBT,
    /*gemm=*/Gemm,
    /*gemm_rows=*/GemmRows,
    /*relu_fwd=*/ReluFwd,
    /*relu_bwd=*/ReluBwd,
    /*relu_mask=*/ReluMask,
    /*axpy=*/Axpy,
    /*scale=*/Scale,
    /*col_sum_acc=*/ColSumAcc,
    /*sum_squares=*/SumSquares,
    /*segment_mean_fwd=*/SegmentMeanFwd,
    /*row_softmax=*/RowSoftmax,
    /*mse_sum=*/MseSum,
    /*mse_bwd=*/MseBwd,
    /*attention_scores=*/AttentionScores,
    /*attention_fwd=*/AttentionFwd,
    /*attention_bwd=*/AttentionBwd,
    /*attention_query_grad=*/AttentionQueryGrad,
    /*attention_input_grad=*/AttentionInputGrad,
    /*adam_step=*/AdamStep,
    /*sgd_momentum=*/SgdMomentum,
};

}  // namespace

const KernelTable* ScalarKernels() { return &kScalarTable; }

}  // namespace simd
}  // namespace grimp
