#include "tensor/tape.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace grimp {

namespace {

// Runs fn(begin, end) over [0, n), chunked onto the global pool when the
// loop is big enough to amortize dispatch; serially (zero overhead, no
// std::function allocation) otherwise. Chunk boundaries depend only on n,
// so any fn touching only its own indices is deterministic at every thread
// count.
template <typename Fn>
void ParallelRange(int64_t n, Fn&& fn) {
  if (ShouldParallelize(n)) {
    ParallelFor(0, n, kParallelThreshold, fn);
  } else {
    fn(0, n);
  }
}

// Row-chunked variant: parallel when the total element count (rows * width)
// is worth it. fn gets a [row_begin, row_end) range.
template <typename Fn>
void ParallelRows(int64_t rows, int64_t width, Fn&& fn) {
  if (width > 0 && ShouldParallelize(rows * width)) {
    const int64_t grain =
        std::max<int64_t>(1, kParallelThreshold / width);
    ParallelFor(0, rows, grain, fn);
  } else {
    fn(0, rows);
  }
}

}  // namespace

Tape::VarId Tape::PushNode(int64_t rows, int64_t cols) {
  if (static_cast<size_t>(size_) == nodes_.size()) nodes_.emplace_back();
  nodes_[size_].value.ResizeUninit(rows, cols);
  nodes_[size_].carries_grad = false;
  return size_++;
}

Tape::VarId Tape::PushCopy(const Tensor& v) {
  const VarId id = PushNode(0, 0);
  nodes_[id].value = v;
  return id;
}

void Tape::Reset() {
  for (VarId id = 0; id < size_; ++id) {
    Node& node = nodes_[id];
    node.reached = false;
    node.backward = nullptr;
  }
  size_ = 0;
}

Tape::VarId Tape::Constant(const Tensor& v) { return PushCopy(v); }

Tape::VarId Tape::Constant(const Tensor* v) {
  GRIMP_CHECK(v != nullptr);
  const VarId id = PushNode(0, 0);
  nodes_[id].value = Tensor::View(*v);
  return id;
}

Tensor* Tape::ConstantInPlace(VarId* id, bool wants_grad) {
  *id = PushNode(0, 0);
  nodes_[*id].carries_grad = wants_grad;
  return &nodes_[*id].value;
}

Tape::VarId Tape::Leaf(Parameter* p) {
  GRIMP_CHECK(p != nullptr);
  VarId id = PushCopy(p->value);
  nodes_[id].carries_grad = true;
  nodes_[id].backward = [this, id, p]() {
    p->grad.Axpy(1.0f, nodes_[id].grad);
    p->grad_written = true;
  };
  return id;
}

Tape::VarId Tape::MatMul(VarId a, VarId b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  VarId id = PushNode(av.rows(), bv.cols());
  grimp::MatMul(av, bv, &nodes_[id].value);
  if (!TrackGrad(id, {a, b})) return id;
  nodes_[id].backward = [this, id, a, b]() {
    const Tensor& g = nodes_[id].grad;
    // dA += g * B^T ; dB += A^T * g, accumulated in the GEMM epilogue (no
    // temporary + Axpy round-trip).
    if (carries_grad(a)) MatMulTransBAcc(g, nodes_[b].value, &GradRef(a));
    if (carries_grad(b)) MatMulTransAAcc(nodes_[a].value, g, &GradRef(b));
  };
  return id;
}

Tape::VarId Tape::Linear(VarId x, VarId w, VarId bias) {
  return LinearImpl(x, w, bias, /*relu=*/false);
}

Tape::VarId Tape::LinearRelu(VarId x, VarId w, VarId bias) {
  return LinearImpl(x, w, bias, /*relu=*/true);
}

Tape::VarId Tape::LinearImpl(VarId x, VarId w, VarId bias, bool relu) {
  const Tensor& xv = nodes_[x].value;
  const Tensor& wv = nodes_[w].value;
  const Tensor& bv = nodes_[bias].value;
  GRIMP_CHECK_EQ(bv.rows(), 1);
  GRIMP_CHECK_EQ(bv.cols(), wv.cols());
  VarId id = PushNode(xv.rows(), wv.cols());
  MatMulFused(xv, wv, bv, relu, &nodes_[id].value);
  if (!TrackGrad(id, {x, w, bias})) return id;
  nodes_[id].backward = [this, id, x, w, bias, relu]() {
    Tensor& g = nodes_[id].grad;
    const simd::KernelTable& kt = simd::Kernels();
    // With the fused ReLU, mask the upstream gradient through the stored
    // activation once, in place (the mask is elementwise, so aliasing is
    // safe and no transient buffer is taken); all three gradient
    // accumulations read the result.
    if (relu) {
      float* gd = g.data();
      const float* yd = nodes_[id].value.data();
      ParallelRange(g.size(), [=, &kt](int64_t i0, int64_t i1) {
        kt.relu_mask(i1 - i0, gd + i0, yd + i0, gd + i0);
      });
    }
    if (carries_grad(x)) MatMulTransBAcc(g, nodes_[w].value, &GradRef(x));
    if (carries_grad(w)) MatMulTransAAcc(nodes_[x].value, g, &GradRef(w));
    if (carries_grad(bias)) {
      kt.col_sum_acc(g.rows(), g.cols(), g.data(), GradRef(bias).data());
    }
  };
  return id;
}

Tape::VarId Tape::AddBias(VarId x, VarId bias) {
  const Tensor& xv = nodes_[x].value;
  const Tensor& bv = nodes_[bias].value;
  GRIMP_CHECK_EQ(bv.rows(), 1);
  GRIMP_CHECK_EQ(bv.cols(), xv.cols());
  VarId id = PushCopy(xv);
  Tensor& out = nodes_[id].value;
  const int64_t n = xv.rows();
  const int64_t d = xv.cols();
  ParallelRows(n, d, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      for (int64_t c = 0; c < d; ++c) out.at(r, c) += bv.at(0, c);
    }
  });
  if (!TrackGrad(id, {x, bias})) return id;
  nodes_[id].backward = [this, id, x, bias]() {
    const Tensor& g = nodes_[id].grad;
    if (carries_grad(x)) GradRef(x).Axpy(1.0f, g);
    if (!carries_grad(bias)) return;
    Tensor& bg = GradRef(bias);
    // Column-chunked so chunks write disjoint bias entries; each column
    // still sums rows in ascending order (deterministic).
    ParallelRows(g.cols(), g.rows(), [&](int64_t c0, int64_t c1) {
      for (int64_t r = 0; r < g.rows(); ++r) {
        for (int64_t c = c0; c < c1; ++c) bg.at(0, c) += g.at(r, c);
      }
    });
  };
  return id;
}

Tape::VarId Tape::Add(VarId a, VarId b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  GRIMP_CHECK(av.SameShape(bv));
  VarId id = PushCopy(av);
  nodes_[id].value.Axpy(1.0f, bv);
  if (!TrackGrad(id, {a, b})) return id;
  nodes_[id].backward = [this, id, a, b]() {
    if (carries_grad(a)) GradRef(a).Axpy(1.0f, nodes_[id].grad);
    if (carries_grad(b)) GradRef(b).Axpy(1.0f, nodes_[id].grad);
  };
  return id;
}

Tape::VarId Tape::Mul(VarId a, VarId b) {
  const Tensor& av = nodes_[a].value;
  const Tensor& bv = nodes_[b].value;
  GRIMP_CHECK(av.SameShape(bv));
  VarId id = PushCopy(av);
  Tensor& out = nodes_[id].value;
  ParallelRange(out.size(), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) out[i] *= bv[i];
  });
  if (!TrackGrad(id, {a, b})) return id;
  nodes_[id].backward = [this, id, a, b]() {
    const Tensor& g = nodes_[id].grad;
    // dA += g * B and dB += g * A, each only if its input carries one.
    for (const auto& [in, other] : {std::pair{a, b}, std::pair{b, a}}) {
      if (!carries_grad(in)) continue;
      Tensor& ig = GradRef(in);
      const Tensor& ov = nodes_[other].value;
      ParallelRange(g.size(), [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) ig[i] += g[i] * ov[i];
      });
    }
  };
  return id;
}

Tape::VarId Tape::Scale(VarId x, float alpha) {
  VarId id = PushCopy(nodes_[x].value);
  Tensor& out = nodes_[id].value;
  ParallelRange(out.size(), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) out[i] *= alpha;
  });
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x, alpha]() {
    GradRef(x).Axpy(alpha, nodes_[id].grad);
  };
  return id;
}

Tape::VarId Tape::RowScale(VarId x, std::vector<float> s) {
  const Tensor& xv = nodes_[x].value;
  GRIMP_CHECK_EQ(static_cast<int64_t>(s.size()), xv.rows());
  VarId id = PushCopy(xv);
  Tensor& out = nodes_[id].value;
  ParallelRows(out.rows(), out.cols(), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      for (int64_t c = 0; c < out.cols(); ++c) out.at(r, c) *= s[r];
    }
  });
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x, s = std::move(s)]() {
    const Tensor& g = nodes_[id].grad;
    Tensor& xg = GradRef(x);
    ParallelRows(g.rows(), g.cols(), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = 0; c < g.cols(); ++c) {
          xg.at(r, c) += g.at(r, c) * s[r];
        }
      }
    });
  };
  return id;
}

Tape::VarId Tape::Relu(VarId x) {
  const Tensor& xv = nodes_[x].value;
  VarId id = PushNode(xv.rows(), xv.cols());
  {
    const simd::KernelTable& kt = simd::Kernels();
    const float* xd = xv.data();
    float* od = nodes_[id].value.data();
    ParallelRange(xv.size(), [=, &kt](int64_t i0, int64_t i1) {
      kt.relu_fwd(i1 - i0, xd + i0, od + i0);
    });
  }
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x]() {
    const Tensor& g = nodes_[id].grad;
    const Tensor& v = nodes_[id].value;
    Tensor& xg = GradRef(x);
    const simd::KernelTable& kt = simd::Kernels();
    const float* gd = g.data();
    const float* vd = v.data();
    float* xgd = xg.data();
    // Branchless select (no conditional store), vectorized per chunk.
    ParallelRange(g.size(), [=, &kt](int64_t i0, int64_t i1) {
      kt.relu_bwd(i1 - i0, gd + i0, vd + i0, xgd + i0);
    });
  };
  return id;
}

Tape::VarId Tape::ConcatCols(const std::vector<VarId>& xs) {
  GRIMP_CHECK(!xs.empty());
  const int64_t n = nodes_[xs[0]].value.rows();
  int64_t total_cols = 0;
  for (VarId x : xs) {
    GRIMP_CHECK_EQ(nodes_[x].value.rows(), n);
    total_cols += nodes_[x].value.cols();
  }
  // Every element is written below.
  VarId id = PushNode(n, total_cols);
  Tensor& out = nodes_[id].value;
  ParallelRows(n, total_cols, [&](int64_t r0, int64_t r1) {
    int64_t col_off = 0;
    for (VarId x : xs) {
      const Tensor& v = nodes_[x].value;
      for (int64_t r = r0; r < r1; ++r) {
        for (int64_t c = 0; c < v.cols(); ++c) {
          out.at(r, col_off + c) = v.at(r, c);
        }
      }
      col_off += v.cols();
    }
  });
  if (!TrackGrad(id, xs)) return id;
  nodes_[id].backward = [this, id, xs]() {
    const Tensor& g = nodes_[id].grad;
    // Materialize every input grad before fanning out: GradRef allocates
    // on first touch, and chunks calling it concurrently would race. An
    // input that carries no gradient keeps a null and only moves the
    // column offset.
    std::vector<Tensor*> grads;
    grads.reserve(xs.size());
    for (VarId x : xs) {
      grads.push_back(carries_grad(x) ? &GradRef(x) : nullptr);
    }
    ParallelRows(g.rows(), g.cols(), [&](int64_t r0, int64_t r1) {
      int64_t off = 0;
      for (size_t i = 0; i < xs.size(); ++i) {
        Tensor* xg = grads[i];
        const int64_t cols = nodes_[xs[i]].value.cols();
        if (xg != nullptr) {
          for (int64_t r = r0; r < r1; ++r) {
            for (int64_t c = 0; c < cols; ++c) {
              xg->at(r, c) += g.at(r, off + c);
            }
          }
        }
        off += cols;
      }
    });
  };
  return id;
}

Tape::VarId Tape::GatherRows(VarId table, std::vector<int32_t> rows) {
  auto owned = std::make_shared<const std::vector<int32_t>>(std::move(rows));
  // Hoist the pointer: argument evaluation order is unspecified, so taking
  // it inline with std::move(owned) could dereference an emptied pointer.
  const std::vector<int32_t>* ptr = owned.get();
  return GatherRowsImpl(table, ptr, std::move(owned));
}

Tape::VarId Tape::GatherRows(VarId table, const std::vector<int32_t>* rows) {
  return GatherRowsImpl(table, rows, nullptr);
}

Tape::VarId Tape::GatherRowsImpl(VarId table,
                                 const std::vector<int32_t>* rows,
                                 std::shared_ptr<const void> owned) {
  GRIMP_CHECK(rows != nullptr);
  const Tensor& tv = nodes_[table].value;
  const int64_t d = tv.cols();
  VarId id = PushNode(static_cast<int64_t>(rows->size()), d);
  Tensor& out = nodes_[id].value;
  // Forward gather is row-disjoint; the backward scatter-add stays serial
  // because duplicate indices in `rows` would race.
  ParallelRows(static_cast<int64_t>(rows->size()), d,
               [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      int32_t r = (*rows)[static_cast<size_t>(i)];
      if (r < 0) {  // missing-value sentinel -> zero row
        for (int64_t c = 0; c < d; ++c) out.at(i, c) = 0.0f;
        continue;
      }
      GRIMP_DCHECK(r < tv.rows());
      for (int64_t c = 0; c < d; ++c) out.at(i, c) = tv.at(r, c);
    }
  });
  if (!TrackGrad(id, {table})) return id;
  nodes_[id].backward = [this, id, table, rows,
                         owned = std::move(owned)]() {
    const Tensor& g = nodes_[id].grad;
    Tensor& tg = GradRef(table);
    for (size_t i = 0; i < rows->size(); ++i) {
      int32_t r = (*rows)[i];
      if (r < 0) continue;
      for (int64_t c = 0; c < g.cols(); ++c) {
        tg.at(r, c) += g.at(static_cast<int64_t>(i), c);
      }
    }
  };
  return id;
}

Tape::VarId Tape::SliceRows(VarId x, int64_t n) {
  const Tensor& xv = nodes_[x].value;
  GRIMP_CHECK(n >= 0 && n <= xv.rows());
  const int64_t d = xv.cols();
  VarId id = PushNode(n, d);
  if (n * d > 0) {
    std::memcpy(nodes_[id].value.data(), xv.data(),
                static_cast<size_t>(n * d) * sizeof(float));
  }
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x]() {
    const Tensor& g = nodes_[id].grad;
    Tensor& xg = GradRef(x);
    float* dst = xg.data();
    const float* src = g.data();
    // The slice is a contiguous row-major prefix, so the scatter is a
    // flat prefix add.
    ParallelRange(g.size(), [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) dst[i] += src[i];
    });
  };
  return id;
}

Tape::VarId Tape::SegmentMean(VarId x, std::vector<int32_t> offsets,
                              std::vector<int32_t> indices) {
  auto owned = std::make_shared<
      std::pair<std::vector<int32_t>, std::vector<int32_t>>>(
      std::move(offsets), std::move(indices));
  // Take the pointers before moving `owned` (argument evaluation order is
  // unspecified).
  const std::vector<int32_t>* off = &owned->first;
  const std::vector<int32_t>* idx = &owned->second;
  return SegmentMeanImpl(x, off, idx, std::move(owned));
}

Tape::VarId Tape::SegmentMean(VarId x, const std::vector<int32_t>* offsets,
                              const std::vector<int32_t>* indices) {
  return SegmentMeanImpl(x, offsets, indices, nullptr);
}

Tape::VarId Tape::SegmentMeanImpl(VarId x,
                                  const std::vector<int32_t>* offsets,
                                  const std::vector<int32_t>* indices,
                                  std::shared_ptr<const void> owned) {
  GRIMP_CHECK(offsets != nullptr && indices != nullptr);
  GRIMP_CHECK_GE(offsets->size(), 1u);
  const Tensor& xv = nodes_[x].value;
  const int64_t num_segments = static_cast<int64_t>(offsets->size()) - 1;
  const int64_t d = xv.cols();
  // The kernel writes every covered output element (zero rows for empty
  // segments), so the zero-fill is skipped. Segments own disjoint output
  // rows; the backward scatter-add stays serial because segments share
  // input rows.
  VarId id = PushNode(num_segments, d);
  {
    const simd::KernelTable& kt = simd::Kernels();
    const int32_t* off = offsets->data();
    const int32_t* idx = indices->data();
    const float* xd = xv.data();
    float* od = nodes_[id].value.data();
    ParallelRows(num_segments, d, [=, &kt](int64_t s0, int64_t s1) {
      kt.segment_mean_fwd(off, idx, xd, d, s0, s1, od);
    });
  }
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x, offsets, indices,
                         owned = std::move(owned)]() {
    const Tensor& g = nodes_[id].grad;
    Tensor& xg = GradRef(x);
    const simd::KernelTable& kt = simd::Kernels();
    const int64_t d = g.cols();
    const int64_t num_segments = static_cast<int64_t>(offsets->size()) - 1;
    for (int64_t s = 0; s < num_segments; ++s) {
      const int32_t begin = (*offsets)[s];
      const int32_t end = (*offsets)[s + 1];
      if (begin == end) continue;
      const float inv = 1.0f / static_cast<float>(end - begin);
      const float* grow = g.data() + s * d;
      for (int32_t e = begin; e < end; ++e) {
        const int32_t j = (*indices)[e];
        kt.axpy(d, inv, grow, xg.data() + j * d);
      }
    }
  };
  return id;
}

Tape::VarId Tape::Reshape(VarId x, int64_t rows, int64_t cols) {
  const Tensor& xv = nodes_[x].value;
  GRIMP_CHECK_EQ(xv.size(), rows * cols);
  VarId id = PushNode(rows, cols);
  if (xv.size() > 0) {
    std::memcpy(nodes_[id].value.data(), xv.data(),
                static_cast<size_t>(xv.size()) * sizeof(float));
  }
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x]() {
    const Tensor& g = nodes_[id].grad;
    Tensor& xg = GradRef(x);
    for (int64_t i = 0; i < g.size(); ++i) {
      xg[i] += g[i];  // identical row-major layout
    }
  };
  return id;
}

namespace {
// Writes row-wise softmax of `in` into `out` (may alias).
void RowSoftmaxInto(const Tensor& in, Tensor* out) {
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t cols = in.cols();
  const float* id = in.data();
  float* od = out->data();
  ParallelRows(in.rows(), cols, [=, &kt](int64_t r0, int64_t r1) {
    kt.row_softmax(r1 - r0, cols, id + r0 * cols, od + r0 * cols);
  });
}
}  // namespace

Tape::VarId Tape::PushProbs(VarId logits) {
  const Tensor& lv = nodes_[logits].value;
  VarId id = PushNode(lv.rows(), lv.cols());
  RowSoftmaxInto(lv, &nodes_[id].value);
  return id;
}

Tape::VarId Tape::RowSoftmax(VarId x) {
  const Tensor& xv = nodes_[x].value;
  // RowSoftmaxInto writes every element.
  VarId id = PushNode(xv.rows(), xv.cols());
  RowSoftmaxInto(xv, &nodes_[id].value);
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x]() {
    const Tensor& g = nodes_[id].grad;
    const Tensor& y = nodes_[id].value;
    Tensor& xg = GradRef(x);
    ParallelRows(g.rows(), g.cols(), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        float dot = 0.0f;
        for (int64_t c = 0; c < g.cols(); ++c) dot += g.at(r, c) * y.at(r, c);
        for (int64_t c = 0; c < g.cols(); ++c) {
          xg.at(r, c) += y.at(r, c) * (g.at(r, c) - dot);
        }
      }
    });
  };
  return id;
}

Tape::VarId Tape::ColumnAttention(VarId h, const std::vector<int32_t>* idx,
                                  VarId a, int64_t num_blocks,
                                  AttentionScratch* scratch,
                                  std::shared_ptr<const void> owned) {
  return ColumnAttentionImpl(h, nullptr, idx, a, num_blocks, scratch,
                             std::move(owned));
}

Tape::VarId Tape::ColumnAttention(const Tensor* h,
                                  const std::vector<int32_t>* idx, VarId a,
                                  int64_t num_blocks,
                                  AttentionScratch* scratch) {
  GRIMP_CHECK(h != nullptr);
  GRIMP_CHECK(scratch != nullptr);
  return ColumnAttentionImpl(-1, h, idx, a, num_blocks, scratch, nullptr);
}

Tape::VarId Tape::ColumnAttentionImpl(VarId h, const Tensor* h_ext,
                                      const std::vector<int32_t>* idx,
                                      VarId a, int64_t num_blocks,
                                      AttentionScratch* scratch,
                                      std::shared_ptr<const void> owned) {
  GRIMP_CHECK(idx != nullptr);
  GRIMP_CHECK_GT(num_blocks, 0);
  GRIMP_CHECK_EQ(static_cast<int64_t>(idx->size()) % num_blocks, 0);
  if (scratch == nullptr) {
    struct Owned {
      AttentionScratch scratch;
      std::shared_ptr<const void> owned;
    };
    auto holder = std::make_shared<Owned>();
    holder->owned = std::move(owned);
    scratch = &holder->scratch;
    owned = std::move(holder);
  }
  const Tensor& hv = h_ext != nullptr ? *h_ext : nodes_[h].value;
  const Tensor& av = nodes_[a].value;
  const int64_t d = hv.cols();
  GRIMP_CHECK_EQ(av.rows(), 1);
  GRIMP_CHECK_EQ(av.cols(), d);
  const int64_t n = static_cast<int64_t>(idx->size()) / num_blocks;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const simd::KernelTable& kt = simd::Kernels();
  scratch->scores.ResizeUninit(hv.rows(), 1);
  scratch->alpha.ResizeUninit(n, num_blocks);
  // The kernels write every element of all three outputs.
  VarId id = PushNode(n, d);
  {
    const float* hd = hv.data();
    const int32_t* ix = idx->data();
    const float* ad = av.data();
    float* scores = scratch->scores.data();
    float* alpha = scratch->alpha.data();
    float* od = nodes_[id].value.data();
    ParallelRows(hv.rows(), d, [=, &kt](int64_t r0, int64_t r1) {
      kt.attention_scores(r1 - r0, d, hd + r0 * d, ad, scale, scores + r0);
    });
    ParallelRows(n, num_blocks * d, [=, &kt](int64_t r0, int64_t r1) {
      kt.attention_fwd(r1 - r0, num_blocks, d, hd, ix + r0 * num_blocks,
                       scores, alpha + r0 * num_blocks, od + r0 * d);
    });
  }
  // The detached form always records: its backward leaves the factors the
  // caller reduces.
  if (h_ext != nullptr) {
    nodes_[id].carries_grad = true;
  } else if (!TrackGrad(id, {h, a})) {
    return id;
  }
  nodes_[id].backward = [this, id, h, h_ext, idx, a, num_blocks, scale,
                         scratch, owned = std::move(owned)]() {
    const simd::KernelTable& kt = simd::Kernels();
    const Tensor& g = nodes_[id].grad;
    const Tensor& hv = h_ext != nullptr ? *h_ext : nodes_[h].value;
    const Tensor& av = nodes_[a].value;
    const int64_t n = g.rows();
    const int64_t d = g.cols();
    const float* hd = hv.data();
    const int32_t* ix = idx->data();
    scratch->score_grad.ResizeUninit(n, num_blocks);
    {
      const float* gd = g.data();
      const float* alpha = scratch->alpha.data();
      float* sg = scratch->score_grad.data();
      ParallelRows(n, num_blocks * d, [=, &kt](int64_t r0, int64_t r1) {
        kt.attention_bwd(r1 - r0, num_blocks, d, hd, ix + r0 * num_blocks,
                         gd + r0 * d, alpha + r0 * num_blocks, scale,
                         sg + r0 * num_blocks);
      });
    }
    if (carries_grad(a)) {
      kt.attention_query_grad(n, num_blocks, d, hd, ix,
                              scratch->score_grad.data(), GradRef(a).data());
    }
    if (h_ext != nullptr) {
      scratch->ctx_grad.ResizeUninit(n, d);
      scratch->query.ResizeUninit(1, d);
      std::copy(g.data(), g.data() + g.size(), scratch->ctx_grad.data());
      std::copy(av.data(), av.data() + d, scratch->query.data());
      return;
    }
    if (!carries_grad(h)) return;  // nothing reads its grad
    // Serial: duplicate indices would race.
    Tensor& hg = GradRef(h);
    const float* alpha = scratch->alpha.data();
    const float* sg = scratch->score_grad.data();
    for (int64_t i = 0; i < n * num_blocks; ++i) {
      if (ix[i] < 0) continue;
      const simd::InputGradTerm term{g.data() + (i / num_blocks) * d,
                                     av.data(), alpha[i], sg[i]};
      kt.attention_input_grad(d, 1, &term,
                              hg.data() + static_cast<int64_t>(ix[i]) * d);
    }
  };
  return id;
}

Tape::VarId Tape::SumAll(VarId x) {
  VarId id = PushNode(1, 1);
  nodes_[id].value[0] = nodes_[x].value.Sum();
  if (!TrackGrad(id, {x})) return id;
  nodes_[id].backward = [this, id, x]() {
    const float g = nodes_[id].grad.scalar();
    Tensor& xg = GradRef(x);
    ParallelRange(xg.size(), [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) xg[i] += g;
    });
  };
  return id;
}

Tape::VarId Tape::SoftmaxCrossEntropy(VarId logits,
                                      std::vector<int32_t> labels,
                                      std::vector<float> class_weights) {
  auto owned = std::make_shared<
      const std::pair<std::vector<int32_t>, std::vector<float>>>(
      std::move(labels), std::move(class_weights));
  // Hoist the pointers before std::move(owned): evaluation order is
  // unspecified.
  const std::vector<int32_t>* lbl = &owned->first;
  const std::vector<float>* cw =
      owned->second.empty() ? nullptr : &owned->second;
  return SoftmaxCrossEntropyImpl(logits, lbl, cw, std::move(owned));
}

Tape::VarId Tape::SoftmaxCrossEntropy(
    VarId logits, const std::vector<int32_t>* labels,
    const std::vector<float>* class_weights) {
  return SoftmaxCrossEntropyImpl(logits, labels, class_weights, nullptr);
}

Tape::VarId Tape::SoftmaxCrossEntropyImpl(
    VarId logits, const std::vector<int32_t>* labels,
    const std::vector<float>* class_weights,
    std::shared_ptr<const void> owned) {
  GRIMP_CHECK(labels != nullptr);
  const Tensor& lv = nodes_[logits].value;
  GRIMP_CHECK_EQ(lv.rows(), static_cast<int64_t>(labels->size()));
  const VarId probs_id = PushProbs(logits);
  const Tensor& probs = nodes_[probs_id].value;
  int64_t n_valid = 0;
  double loss = 0.0;
  for (int64_t r = 0; r < lv.rows(); ++r) {
    const int32_t y = (*labels)[r];
    if (y < 0) continue;
    GRIMP_DCHECK(y < lv.cols());
    const float w = class_weights == nullptr
                        ? 1.0f
                        : (*class_weights)[static_cast<size_t>(y)];
    loss -= w * std::log(std::max(probs.at(r, y), 1e-12f));
    ++n_valid;
  }
  const float inv_n = n_valid > 0 ? 1.0f / static_cast<float>(n_valid) : 0.0f;
  const VarId id = PushNode(1, 1);
  nodes_[id].value[0] = static_cast<float>(loss) * inv_n;
  if (!TrackGrad(id, {logits})) return id;
  nodes_[id].backward = [this, id, logits, labels, class_weights,
                         owned = std::move(owned), probs_id, inv_n]() {
    const float g = nodes_[id].grad.scalar() * inv_n;
    const Tensor& probs = nodes_[probs_id].value;
    Tensor& lg = GradRef(logits);
    const simd::KernelTable& kt = simd::Kernels();
    const int64_t d = lg.cols();
    ParallelRows(lg.rows(), d, [&, d](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const int32_t y = (*labels)[static_cast<size_t>(r)];
        if (y < 0) continue;
        const float w = class_weights == nullptr
                            ? 1.0f
                            : (*class_weights)[static_cast<size_t>(y)];
        // dL/dz = coeff * (p - onehot): one axpy of the probability row,
        // then the onehot correction at the label column.
        const float coeff = g * w;
        kt.axpy(d, coeff, probs.data() + r * d, lg.data() + r * d);
        lg.at(r, y) -= coeff;
      }
    });
  };
  return id;
}

Tape::VarId Tape::FocalLoss(VarId logits, std::vector<int32_t> labels,
                            float gamma) {
  auto owned = std::make_shared<const std::vector<int32_t>>(std::move(labels));
  const std::vector<int32_t>* lbl = owned.get();
  return FocalLossImpl(logits, lbl, gamma, std::move(owned));
}

Tape::VarId Tape::FocalLoss(VarId logits, const std::vector<int32_t>* labels,
                            float gamma) {
  return FocalLossImpl(logits, labels, gamma, nullptr);
}

Tape::VarId Tape::FocalLossImpl(VarId logits,
                                const std::vector<int32_t>* labels,
                                float gamma,
                                std::shared_ptr<const void> owned) {
  GRIMP_CHECK(labels != nullptr);
  const Tensor& lv = nodes_[logits].value;
  GRIMP_CHECK_EQ(lv.rows(), static_cast<int64_t>(labels->size()));
  const VarId probs_id = PushProbs(logits);
  const Tensor& probs = nodes_[probs_id].value;
  int64_t n_valid = 0;
  double loss = 0.0;
  for (int64_t r = 0; r < lv.rows(); ++r) {
    const int32_t y = (*labels)[r];
    if (y < 0) continue;
    const float pt = std::max(probs.at(r, y), 1e-12f);
    loss -= std::pow(1.0f - pt, gamma) * std::log(pt);
    ++n_valid;
  }
  const float inv_n = n_valid > 0 ? 1.0f / static_cast<float>(n_valid) : 0.0f;
  const VarId id = PushNode(1, 1);
  nodes_[id].value[0] = static_cast<float>(loss) * inv_n;
  if (!TrackGrad(id, {logits})) return id;
  nodes_[id].backward = [this, id, logits, labels, gamma,
                         owned = std::move(owned), probs_id, inv_n]() {
    const float g = nodes_[id].grad.scalar() * inv_n;
    const Tensor& probs = nodes_[probs_id].value;
    Tensor& lg = GradRef(logits);
    const simd::KernelTable& kt = simd::Kernels();
    const int64_t d = lg.cols();
    ParallelRows(lg.rows(), d, [&, d](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const int32_t y = (*labels)[static_cast<size_t>(r)];
        if (y < 0) continue;
        const float pt = std::max(probs.at(r, y), 1e-12f);
        const float one_m = 1.0f - pt;
        // dL/dp_t for L = -(1-p)^g log p.
        const float dl_dpt =
            gamma * std::pow(one_m, gamma - 1.0f) * std::log(pt) -
            std::pow(one_m, gamma) / pt;
        // dp_t/dz_c = p_y * (onehot - p_c): one axpy of -coeff * probs
        // plus the onehot correction at the label column.
        const float coeff = g * dl_dpt * probs.at(r, y);
        kt.axpy(d, -coeff, probs.data() + r * d, lg.data() + r * d);
        lg.at(r, y) += coeff;
      }
    });
  };
  return id;
}

Tape::VarId Tape::MseLoss(VarId pred, std::vector<float> targets,
                          std::vector<float> mask) {
  auto owned = std::make_shared<
      const std::pair<std::vector<float>, std::vector<float>>>(
      std::move(targets), std::move(mask));
  const std::vector<float>* tgt = &owned->first;
  const std::vector<float>* msk =
      owned->second.empty() ? nullptr : &owned->second;
  return MseLossImpl(pred, tgt, msk, std::move(owned));
}

Tape::VarId Tape::MseLoss(VarId pred, const std::vector<float>* targets,
                          const std::vector<float>* mask) {
  return MseLossImpl(pred, targets, mask, nullptr);
}

Tape::VarId Tape::MseLossImpl(VarId pred, const std::vector<float>* targets,
                              const std::vector<float>* mask,
                              std::shared_ptr<const void> owned) {
  GRIMP_CHECK(targets != nullptr);
  const Tensor& pv = nodes_[pred].value;
  GRIMP_CHECK_EQ(pv.cols(), 1);
  GRIMP_CHECK_EQ(pv.rows(), static_cast<int64_t>(targets->size()));
  const simd::KernelTable& kt = simd::Kernels();
  int64_t n_valid = 0;
  const double loss = kt.mse_sum(pv.rows(), pv.data(), targets->data(),
                                 mask == nullptr ? nullptr : mask->data(),
                                 &n_valid);
  const float inv_n = n_valid > 0 ? 1.0f / static_cast<float>(n_valid) : 0.0f;
  VarId id = PushNode(1, 1);
  nodes_[id].value[0] = static_cast<float>(loss) * inv_n;
  if (!TrackGrad(id, {pred})) return id;
  nodes_[id].backward = [this, id, pred, targets, mask,
                         owned = std::move(owned), inv_n]() {
    const float g = nodes_[id].grad.scalar() * inv_n;
    const Tensor& pv = nodes_[pred].value;
    Tensor& pg = GradRef(pred);
    const simd::KernelTable& kt = simd::Kernels();
    kt.mse_bwd(pv.rows(), g * 2.0f, pv.data(), targets->data(),
               mask == nullptr ? nullptr : mask->data(), pg.data());
  };
  return id;
}

namespace {

// Runs fn(lane) for every lane in [0, num_lanes): one pool chunk per lane
// when `work` elements are worth the dispatch, inline otherwise. Fanned
// out, the kernels a lane calls nest inside its chunk and run inline on
// that thread.
template <typename Fn>
void ForEachLane(size_t num_lanes, int64_t work, Fn&& fn) {
  const auto n = static_cast<int64_t>(num_lanes);
  if (ShouldParallelize(work)) {
    ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t t = lo; t < hi; ++t) fn(static_cast<size_t>(t));
    });
  } else {
    for (size_t t = 0; t < num_lanes; ++t) fn(t);
  }
}

// The dst row of HeteroSage output row i: dst_of[i] (SageScratch::
// out_rows), or i itself when dst_of is null.
int64_t DstRow(const int32_t* dst_of, int32_t i) {
  return dst_of != nullptr ? dst_of[i] : i;
}

}  // namespace

Tape::VarId Tape::HeteroSage(VarId h_dst, VarId h_src, SageScratch* scratch,
                             std::shared_ptr<const void> owned) {
  GRIMP_CHECK(scratch != nullptr && !scratch->lanes.empty());
  const Tensor& dv = nodes_[h_dst].value;
  const Tensor& sv = nodes_[h_src].value;
  const int64_t num_dst = dv.rows();
  const int64_t num_out = static_cast<int64_t>(scratch->row_scale.size());
  const int64_t in = dv.cols();
  const int64_t out_dim = nodes_[scratch->lanes[0].weight].value.cols();
  const int32_t* dst_of =
      scratch->out_rows != nullptr ? scratch->out_rows->data() : nullptr;
  GRIMP_CHECK_EQ(scratch->out_rows != nullptr
                     ? static_cast<int64_t>(scratch->out_rows->size())
                     : num_dst,
                 num_out);
  GRIMP_CHECK_EQ(sv.cols(), in);
  // Every buffer is sized here, on the calling thread: lanes only write
  // into storage they were handed.
  int64_t work = 0;
  for (SageLane& lane : scratch->lanes) {
    GRIMP_CHECK(lane.offsets != nullptr && lane.indices != nullptr);
    GRIMP_CHECK_EQ(static_cast<int64_t>(lane.offsets->size()), num_dst + 1);
    const Tensor& w = nodes_[lane.weight].value;
    GRIMP_CHECK(w.rows() == 2 * in && w.cols() == out_dim);
    const auto n = static_cast<int64_t>(lane.rows.size());
    GRIMP_CHECK(lane.live >= 0 && lane.live <= n);
    lane.x.ResizeUninit(n, 2 * in);
    lane.y.ResizeUninit(n, out_dim);
    work += n * 2 * in;
  }
  VarId id = PushNode(num_out, out_dim);
  Tensor& out = nodes_[id].value;
  const simd::KernelTable& kt = simd::Kernels();
  ForEachLane(scratch->lanes.size(), work, [&](size_t t) {
    SageLane& lane = scratch->lanes[t];
    if (lane.rows.empty()) return;
    const int32_t* off = lane.offsets->data();
    const int32_t* idx = lane.indices->data();
    for (size_t i = 0; i < lane.rows.size(); ++i) {
      const int64_t r = DstRow(dst_of, lane.rows[i]);
      GRIMP_DCHECK(r < num_dst);
      float* xr = lane.x.data() + static_cast<int64_t>(i) * 2 * in;
      std::memcpy(xr, dv.data() + r * in,
                  static_cast<size_t>(in) * sizeof(float));
      kt.segment_mean_fwd(off + r, idx, sv.data(), in, 0, 1, xr + in);
    }
    MatMulFused(lane.x, nodes_[lane.weight].value, nodes_[lane.bias].value,
                /*relu=*/false, &lane.y);
  });
  // Fixed-order reduce, chunked by output rows: each row takes its lanes in
  // ascending order. -0 is the exact additive identity, so a row sums its
  // lanes' outputs (and the zero-scaled rows their signed zeros) exactly as
  // a left-to-right Add chain over masked lane outputs would.
  const auto num_lanes = static_cast<int64_t>(scratch->lanes.size());
  ParallelRows(num_out, num_lanes * out_dim, [&](int64_t r0, int64_t r1) {
    std::fill(out.data() + r0 * out_dim, out.data() + r1 * out_dim, -0.0f);
    for (const SageLane& lane : scratch->lanes) {
      // The live rows add y, the zero-scaled ones 0 * y; both runs ascend.
      const auto begin = lane.rows.begin();
      const auto live_end = begin + lane.live;
      const auto add_run = [&](auto first, auto last, float mask) {
        for (auto it = std::lower_bound(first, last, r0);
             it != last && *it < r1; ++it) {
          kt.axpy(out_dim, mask, lane.y.data() + (it - begin) * out_dim,
                  out.data() + *it * out_dim);
        }
      };
      add_run(begin, live_end, 1.0f);
      add_run(live_end, lane.rows.end(), 0.0f);
    }
    for (int64_t r = r0; r < r1; ++r) {
      kt.scale(out_dim, scratch->row_scale[static_cast<size_t>(r)],
               out.data() + r * out_dim);
    }
  });
  TrackGrad(id, {h_dst, h_src});
  for (const SageLane& lane : scratch->lanes) {
    TrackGrad(id, {lane.weight, lane.bias});
  }
  if (!carries_grad(id)) return id;
  nodes_[id].backward = [this, id, h_dst, h_src, scratch,
                         owned = std::move(owned)]() {
    // Pre-held so recording the span allocates nothing.
    static const std::string kSpan = "gnn.backward";
    const auto start = std::chrono::steady_clock::now();
    SageScratch& s = *scratch;
    const Tensor& g = nodes_[id].grad;
    const int64_t out_dim = g.cols();
    const int32_t* dst_of =
        s.out_rows != nullptr ? s.out_rows->data() : nullptr;
    const bool dst_grad = carries_grad(h_dst);
    const bool src_grad = carries_grad(h_src);
    // Materialize every grad this pass writes before the lanes fan out.
    int64_t work = 0;
    for (SageLane& lane : s.lanes) {
      if (lane.rows.empty()) continue;
      if (carries_grad(lane.weight)) GradRef(lane.weight);
      if (carries_grad(lane.bias)) GradRef(lane.bias);
      if (dst_grad || src_grad) {
        lane.dx.ResizeUninit(lane.x.rows(), lane.x.cols());
      }
      work += lane.x.size();
    }
    Tensor* dst_g = dst_grad ? &GradRef(h_dst) : nullptr;
    Tensor* src_g = src_grad ? &GradRef(h_src) : nullptr;
    const simd::KernelTable& kt = simd::Kernels();
    ForEachLane(s.lanes.size(), work, [&](size_t t) {
      SageLane& lane = s.lanes[t];
      if (lane.rows.empty()) return;
      // The lane's upstream gradient, in place of its forward output.
      float* dy = lane.y.data();
      for (size_t i = 0; i < lane.rows.size(); ++i) {
        const int64_t r = lane.rows[i];
        const float scale = s.row_scale[static_cast<size_t>(r)];
        const float* gr = g.data() + r * out_dim;
        float* dyr = dy + static_cast<int64_t>(i) * out_dim;
        for (int64_t c = 0; c < out_dim; ++c) dyr[c] = gr[c] * scale;
      }
      if (carries_grad(lane.weight)) {
        MatMulTransAAcc(lane.x, lane.y, &nodes_[lane.weight].grad);
      }
      if (carries_grad(lane.bias)) {
        kt.col_sum_acc(lane.y.rows(), out_dim, dy,
                       nodes_[lane.bias].grad.data());
      }
      if (dst_g != nullptr || src_g != nullptr) {
        MatMulTransB(lane.y, nodes_[lane.weight].value, &lane.dx);
      }
    });
    // The input-gradient replay, on this thread, in the chain's order. A
    // dst row outside out_rows would only add the chain's exact zeros.
    for (size_t t = s.lanes.size(); t-- > 0;) {
      const SageLane& lane = s.lanes[t];
      const int64_t in = lane.x.cols() / 2;
      if (dst_g != nullptr) {
        for (int64_t i = 0; i < lane.live; ++i) {
          const int64_t r =
              DstRow(dst_of, lane.rows[static_cast<size_t>(i)]);
          kt.axpy(in, 1.0f, lane.dx.data() + i * 2 * in,
                  dst_g->data() + r * in);
        }
      }
      if (src_g != nullptr) {
        const std::vector<int32_t>& off = *lane.offsets;
        const std::vector<int32_t>& idx = *lane.indices;
        for (int64_t i = 0; i < lane.live; ++i) {
          const int64_t r =
              DstRow(dst_of, lane.rows[static_cast<size_t>(i)]);
          const float inv =
              1.0f / static_cast<float>(off[r + 1] - off[r]);
          const float* grow = lane.dx.data() + i * 2 * in + in;
          for (int32_t e = off[r]; e < off[r + 1]; ++e) {
            kt.axpy(in, inv, grow, src_g->data() + idx[e] * in);
          }
        }
      }
    }
    MetricsRegistry::Global().RecordSpan(
        kSpan, std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count());
  };
  return id;
}

void Tape::BackwardFrom(VarId root, const Tensor& grad) {
  GRIMP_CHECK(root >= 0 && root < size_);
  Node& top = nodes_[root];
  GRIMP_CHECK(grad.SameShape(top.value));
  top.grad = grad;
  top.reached = true;
  for (VarId id = root; id >= 0; --id) {
    Node& node = nodes_[id];
    // A node no consumer reached received no contribution, so its backward
    // could only propagate zeros: skip it (and thereby its whole unreached
    // subgraph).
    if (node.backward && node.reached) node.backward();
  }
}

}  // namespace grimp
