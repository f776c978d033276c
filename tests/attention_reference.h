#ifndef GRIMP_TESTS_ATTENTION_REFERENCE_H_
#define GRIMP_TESTS_ATTENTION_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/tensor.h"

namespace grimp {
namespace testing {

// The op chain Tape::ColumnAttention replaced, GatherRows -> Reshape ->
// ColBlockDot -> RowSoftmax -> ColBlockWeightedSum, written out as plain
// loops in that chain's per-element order (its zero-initialized gradient
// buffers, its skips of zero weights). The node and its scalar kernels
// must match it bit for bit.
struct AttentionReference {
  int64_t blocks = 0;
  Tensor v;      // n x (blocks * d): the gathered copy, zero blocks for -1
  Tensor alpha;  // n x blocks
  Tensor ctx;    // n x d
  // Set by Backward.
  Tensor v_grad;      // n x (blocks * d): each block's input gradient
  Tensor score_grad;  // n x blocks: dL/ds / sqrt(d)
  Tensor a_grad;      // 1 x d
};

inline AttentionReference ReferenceForward(const Tensor& h,
                                           const std::vector<int32_t>& idx,
                                           const Tensor& a, int64_t blocks) {
  AttentionReference ref;
  ref.blocks = blocks;
  const int64_t d = h.cols();
  const int64_t n = static_cast<int64_t>(idx.size()) / blocks;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  ref.v = Tensor::Zeros(n, blocks * d);
  for (size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] < 0) continue;
    std::memcpy(ref.v.data() + static_cast<int64_t>(i) * d,
                h.data() + static_cast<int64_t>(idx[i]) * d,
                static_cast<size_t>(d) * sizeof(float));
  }
  ref.alpha = Tensor::Zeros(n, blocks);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t b = 0; b < blocks; ++b) {
      float acc = 0.0f;
      for (int64_t c = 0; c < d; ++c) acc += ref.v.at(r, b * d + c) * a[c];
      ref.alpha.at(r, b) = acc * scale;
    }
    float mx = ref.alpha.at(r, 0);
    for (int64_t b = 1; b < blocks; ++b) mx = std::max(mx, ref.alpha.at(r, b));
    float sum = 0.0f;
    for (int64_t b = 0; b < blocks; ++b) {
      const float e = std::exp(ref.alpha.at(r, b) - mx);
      ref.alpha.at(r, b) = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (int64_t b = 0; b < blocks; ++b) ref.alpha.at(r, b) *= inv;
  }
  ref.ctx = Tensor::Zeros(n, d);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t b = 0; b < blocks; ++b) {
      const float w = ref.alpha.at(r, b);
      if (w == 0.0f) continue;
      for (int64_t c = 0; c < d; ++c) {
        ref.ctx.at(r, c) += w * ref.v.at(r, b * d + c);
      }
    }
  }
  return ref;
}

// The chain's backward from g = dL/dctx, in tape order: the weighted sum,
// the softmax, then the dot.
inline void ReferenceBackward(AttentionReference* ref, const Tensor& a,
                              const Tensor& g) {
  const int64_t blocks = ref->blocks;
  const int64_t n = ref->ctx.rows();
  const int64_t d = ref->ctx.cols();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const Tensor& v = ref->v;
  const Tensor& y = ref->alpha;
  ref->v_grad = Tensor::Zeros(n, blocks * d);
  Tensor alpha_grad = Tensor::Zeros(n, blocks);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t b = 0; b < blocks; ++b) {
      float dot = 0.0f;
      const float w = y.at(r, b);
      for (int64_t c = 0; c < d; ++c) {
        dot += g.at(r, c) * v.at(r, b * d + c);
        ref->v_grad.at(r, b * d + c) += w * g.at(r, c);
      }
      alpha_grad.at(r, b) += dot;
    }
  }
  Tensor score_grad = Tensor::Zeros(n, blocks);
  for (int64_t r = 0; r < n; ++r) {
    float dot = 0.0f;
    for (int64_t b = 0; b < blocks; ++b) {
      dot += alpha_grad.at(r, b) * y.at(r, b);
    }
    for (int64_t b = 0; b < blocks; ++b) {
      score_grad.at(r, b) += y.at(r, b) * (alpha_grad.at(r, b) - dot);
    }
  }
  ref->score_grad = Tensor::Zeros(n, blocks);
  ref->a_grad = Tensor::Zeros(1, d);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t b = 0; b < blocks; ++b) {
      const float gb = score_grad.at(r, b) * scale;
      ref->score_grad.at(r, b) = gb;
      if (gb == 0.0f) continue;
      for (int64_t c = 0; c < d; ++c) {
        ref->v_grad.at(r, b * d + c) += gb * a[c];
        ref->a_grad[c] += gb * v.at(r, b * d + c);
      }
    }
  }
}

// The chain's GatherRows backward (and the trainer's old per-task
// ScatterTaskRows): adds block i of `v_grad` into row idx[i] of *h_grad,
// i ascending, skipping -1.
inline void ReferenceScatter(const Tensor& v_grad,
                             const std::vector<int32_t>& idx,
                             Tensor* h_grad) {
  const int64_t d = h_grad->cols();
  for (size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] < 0) continue;
    const float* src = v_grad.data() + static_cast<int64_t>(i) * d;
    float* dst = h_grad->data() + static_cast<int64_t>(idx[i]) * d;
    for (int64_t c = 0; c < d; ++c) dst[c] += src[c];
  }
}

// One block dot as the AVX2 table's BlockDots computes it, in scalar
// code: eight lane chains of fused multiply-adds over the row's 8-float
// chunks (a ragged tail only feeds its live lanes), summed by its hadd
// tree ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)), then scaled.
inline float BlockDotTree(const float* row, const float* x, int64_t d,
                          float scale) {
  float lane[8] = {};
  for (int64_t k = 0; k < d; ++k) {
    lane[k % 8] = std::fma(x[k], row[k], lane[k % 8]);
  }
  return (((lane[0] + lane[1]) + (lane[2] + lane[3])) +
          ((lane[4] + lane[5]) + (lane[6] + lane[7]))) *
         scale;
}

// memcmp equality of two same-shaped tensors.
inline bool BitEqual(const Tensor& x, const Tensor& y) {
  return x.SameShape(y) &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(),
                      static_cast<size_t>(x.size()) * sizeof(float)) == 0);
}

}  // namespace testing
}  // namespace grimp

#endif  // GRIMP_TESTS_ATTENTION_REFERENCE_H_
