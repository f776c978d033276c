#ifndef GRIMP_TENSOR_TAPE_H_
#define GRIMP_TENSOR_TAPE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace grimp {

// A trainable tensor. Lives outside the Tape so gradients persist across
// steps; optimizers consume `grad` and the trainer zeroes it each step.
//
// `grad_written` is false only while `grad` is known to be all +0: ZeroGrad
// clears it, and a tape's Leaf sets it when its backward adds into `grad`.
// The optimizer's ZeroGrad and clip skip a parameter whose flag is false,
// which on a sampled step is every head but the one trained. A new
// Parameter counts as written. Code that writes `grad` by hand after a
// ZeroGrad must set the flag too (or the write is neither clipped nor
// zeroed).
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  bool grad_written = true;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)),
        grad(Tensor::Zeros(value.rows(), value.cols())) {}

  // Zeroes `grad` unless it is known to be zero already.
  void ZeroGrad() {
    if (grad_written) grad.Zero();
    grad_written = false;
  }
};

// Move-only callable holding a backward closure entirely in inline storage.
// Tape ops record one closure per node per step; with std::function the
// captures (this + a few ids, sometimes vectors) exceed its small-buffer
// size and every op would heap-allocate its closure, defeating the tape's
// allocation-free steady state. kInlineBytes is sized for the largest
// closure in tape.cc; the constructor static_asserts so growth is a compile
// error, not a silent regression.
class BackwardFn {
 public:
  static constexpr size_t kInlineBytes = 136;

  BackwardFn() noexcept = default;
  BackwardFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BackwardFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  BackwardFn(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "closure too large; enlarge BackwardFn::kInlineBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closure");
    new (storage_) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::value;
  }
  BackwardFn(BackwardFn&& other) noexcept { MoveFrom(&other); }
  BackwardFn& operator=(BackwardFn&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(&other);
    }
    return *this;
  }
  BackwardFn& operator=(std::nullptr_t) noexcept {
    Destroy();
    return *this;
  }
  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;
  ~BackwardFn() { Destroy(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*move_construct)(void* dst, void* src);
    void (*destroy)(void*);
  };
  template <typename Fn>
  struct OpsFor {
    static constexpr Ops value = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) {
          new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); }};
  };

  void MoveFrom(BackwardFn* other) noexcept {
    ops_ = other->ops_;
    if (ops_ != nullptr) {
      ops_->move_construct(storage_, other->storage_);
      other->Destroy();
    }
  }
  void Destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

struct SageScratch;
struct AttentionScratch;

// Reverse-mode autodiff over a linear tape. BackwardFrom replays the recorded
// closures in reverse order and accumulates leaf gradients into their
// Parameters.
//
// A Tape owns the buffers of what it records: node i's value and grad live
// in slot i, and Reset() rewinds the tape without freeing them. An op
// records into its slot's tensors in place (Tensor::ResizeUninit), so once a
// persistent tape (see core/trainer.cc) has recorded its largest step,
// recording the same computation again allocates nothing: values and grads
// reuse their slots' buffers, and backward closures live inline in the
// slots too. This is the one place tensor buffers are recycled across
// steps; everything else a step reuses lives in caller scratch.
//
// Gradients are lazy: recording a node touches no grad. BackwardFrom
// zero-fills a node's grad (in its slot's buffer) only when a consumer
// reaches it from the root, and skips the backward closure of any node no
// consumer reached — such a closure could only scatter zeros. Whether a
// node was reached is per-slot state that Reset clears, never the grad's
// shape: a slot still holds the grad of the step before. An inference-only
// tape that never calls BackwardFrom does no gradient work at all.
// grad(id) on an unreached node reads zeros.
//
// Gradients are also live only where something can read them. A node
// carries a gradient when it is a Leaf, a ConstantInPlace whose creator
// asked for one (`wants_grad`), or an op over at least one such input. An
// op over inputs that carry none records no backward, and a backward
// computes, zero-fills and adds into only the inputs that carry one. So
// the node features, a slice of them or a product of constants never get
// a gradient: a sampled step's first GNN layer skips its input-gradient
// GEMMs and replay. Every Parameter's gradient keeps its bits: a skipped
// term could only have reached a node nothing reads.
//
// All ops GRIMP needs are first-class tape methods (no generic broadcasting
// engine): matrix product, bias, activations, column concat, row gather
// (embedding lookup), segment mean (neighborhood aggregation), row softmax,
// the attention head's column attention, the fused losses, and a whole
// heterogeneous GNN layer.
class Tape {
 public:
  using VarId = int32_t;

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Rewinds the tape for a new forward pass: drops the closures (and what
  // they own) and marks every node unreached, but keeps every slot with its
  // value and grad buffers, so recording the same computation again
  // allocates nothing.
  void Reset();

  // --- Tape inputs -------------------------------------------------------
  // A value the tape does not differentiate, copied into the node's slot.
  // It carries no gradient: no op computes one for it.
  VarId Constant(const Tensor& v);
  // Borrowing overload: the node reads `v` in place (Tensor::View), with no
  // copy. `v` must stay alive and unchanged until the tape is Reset or
  // destroyed.
  VarId Constant(const Tensor* v);
  // A constant the caller writes in place: returns the new node's value
  // tensor (the slot's retained buffer: any shape, contents unspecified;
  // size it with ResizeUninit) and stores the node's id in *id. Fill it
  // before recording an op that reads it. With `wants_grad` the node
  // carries a gradient, which BackwardFrom leaves in grad(*id) for the
  // caller (the full-mode linear heads read their input's).
  Tensor* ConstantInPlace(VarId* id, bool wants_grad = false);
  // A trainable parameter; BackwardFrom accumulates into p->grad. `p` must
  // outlive the tape.
  VarId Leaf(Parameter* p);

  const Tensor& value(VarId id) const { return nodes_[id].value; }
  // Whether the node carries a gradient (see the class comment).
  bool carries_grad(VarId id) const { return nodes_[id].carries_grad; }
  // Materializes (zeros) on first access of an unreached node's grad.
  const Tensor& grad(VarId id) const {
    return const_cast<Tape*>(this)->GradRef(id);
  }
  int64_t num_nodes() const { return size_; }

  // --- Differentiable ops ------------------------------------------------
  // (M x K) * (K x N) -> (M x N).
  VarId MatMul(VarId a, VarId b);
  // Fused x * w + bias (bias is 1 x N, row-broadcast): one tape node whose
  // forward applies the bias in the GEMM epilogue and whose backward feeds
  // all three gradients from one upstream read (accumulating GEMMs + column
  // sum). Equivalent to AddBias(MatMul(x, w), bias) node-for-node.
  VarId Linear(VarId x, VarId w, VarId bias);
  // Fused relu(x * w + bias). The backward masks the upstream gradient
  // through the stored activation (y > 0) before the three gradient
  // accumulations. Equivalent to Relu(AddBias(MatMul(x, w), bias)). The
  // mask is applied in place, so after a backward pass this node's grad
  // reads post-mask.
  VarId LinearRelu(VarId x, VarId w, VarId bias);
  // (N x D) + broadcast (1 x D).
  VarId AddBias(VarId x, VarId bias);
  // Same-shape elementwise sum.
  VarId Add(VarId a, VarId b);
  // Elementwise product (same shape).
  VarId Mul(VarId a, VarId b);
  // alpha * x.
  VarId Scale(VarId x, float alpha);
  // out[r, c] = x[r, c] * s[r]; `s` is a fixed per-row scale (masking by
  // which inputs are present).
  VarId RowScale(VarId x, std::vector<float> s);
  VarId Relu(VarId x);
  // Horizontal concatenation; all inputs share the row count.
  VarId ConcatCols(const std::vector<VarId>& xs);
  // out.row(i) = table.row(rows[i]). Gradient scatter-adds (embedding
  // lookup). Negative index -> zero row (the missing-value sentinel).
  VarId GatherRows(VarId table, std::vector<int32_t> rows);
  // Borrowing overload: `rows` is not copied and must stay alive until the
  // tape is Reset or destroyed (the trainer's index scratch outlives both).
  VarId GatherRows(VarId table, const std::vector<int32_t>* rows);
  // out = the first n rows of x (identity-prefix gather without the index
  // vector; the gradient adds into the first n rows of x).
  VarId SliceRows(VarId x, int64_t n);
  // CSR segment mean: out.row(i) = mean_{j in indices[offsets[i] ..
  // offsets[i+1])} x.row(j); empty segments produce zero rows.
  // offsets.size() == num_segments + 1.
  VarId SegmentMean(VarId x, std::vector<int32_t> offsets,
                    std::vector<int32_t> indices);
  // Borrowing overload: offsets/indices are not copied and must stay alive
  // until the tape is Reset or destroyed (graph adjacency outlives both).
  VarId SegmentMean(VarId x, const std::vector<int32_t>* offsets,
                    const std::vector<int32_t>* indices);
  // Reinterprets the (row-major) buffer with a new shape of equal size.
  VarId Reshape(VarId x, int64_t rows, int64_t cols);
  // Row-wise softmax.
  VarId RowSoftmax(VarId x);
  // The attention task head's column attention (paper §3.6, Fig. 6) over
  // vectors read straight from rows of `h` (N x D) through `idx`, with no
  // gathered copy: vector i has C = num_blocks blocks, block c being row
  // idx[i * C + c] of h, or a zero block for -1. With the query `a` (1 x D)
  //   s[i, c]  = <block c, a> / sqrt(D)
  //   alpha[i] = softmax_c(s[i])          (left in scratch->alpha)
  //   out[i]   = sum_c alpha[i, c] * block c    (|idx| / C x D)
  // on the dispatched attention kernels (simd.h). A row's score is one dot
  // however many blocks read it: the forward scores every row of h once
  // (scratch->scores) and gathers, so h should hold the rows the vectors
  // read (full mode's read rows, a batch's seeds). The backward adds the
  // gradient of a and scatters each block's input gradient,
  // (0 + alpha * g) + score_grad * a (simd attention_input_grad), into h's
  // grad row by row in idx order, the order a GatherRows backward adds in.
  // Like every op, it writes no gradient into an h that carries none (a
  // Constant). `idx` is borrowed until the tape is Reset.
  // `scratch` must stay alive and untouched until then; null makes a
  // tape-owned one. `owned` rides along with the node.
  VarId ColumnAttention(VarId h, const std::vector<int32_t>* idx, VarId a,
                        int64_t num_blocks, AttentionScratch* scratch,
                        std::shared_ptr<const void> owned = nullptr);
  // The detached form, for full-mode training's per-task sub-tapes
  // (core/trainer.cc): `h` is a tensor off this tape, borrowed until Reset,
  // and the backward writes no input gradient. It leaves the compact
  // factors that define it in *scratch instead (score_grad, ctx_grad,
  // query), for the caller to rebuild each block's input gradient with
  // simd attention_input_grad where it reduces the tasks.
  VarId ColumnAttention(const Tensor* h, const std::vector<int32_t>* idx,
                        VarId a, int64_t num_blocks, AttentionScratch* scratch);

  // Sum of all entries (1x1).
  VarId SumAll(VarId x);

  // One heterogeneous GraphSAGE layer (gnn/hetero_sage.h) as one node, with
  // one lane per edge type. Output row i stands for dst row d(i): the
  // scratch's out_rows[i], or i itself when out_rows is null. Over its rows
  // only, lane t computes
  //   y_t = [h_dst[d(rows)] || segment_mean_t(h_src)[d(rows)]] * W_t + b_t,
  // and out[i] = row_scale[i] * (sum of y_t[i] over the lanes whose live
  // rows hold i, in ascending lane order). Lanes run as one ParallelFor
  // when the layer is big enough to pay for the pool. The backward takes
  // each lane's dW, db and input gradient on the same rows, then replays
  // the input-gradient scatter into the dst rows d(i) on the calling
  // thread in the order the per-lane SegmentMean -> ConcatCols -> Linear ->
  // RowScale -> Add chain would (descending lanes; self term, then segment
  // scatter), so values and grads equal that chain's bit for bit — with
  // out_rows, equal to the chain's rows d(i) under an upstream gradient
  // that is zero on every other row. It computes no input gradient (no
  // lane dx, no replay) for an input that carries none, such as the node
  // features or a SliceRows of them. `scratch` (see SageScratch) must stay
  // alive and untouched until the tape is Reset; `owned` rides along with
  // the node.
  VarId HeteroSage(VarId h_dst, VarId h_src, SageScratch* scratch,
                   std::shared_ptr<const void> owned = nullptr);

  // --- Losses (fused; return 1x1 scalars) --------------------------------
  // Mean softmax cross entropy; labels[i] == -1 is ignored. If
  // class_weights is non-empty it rescales each class's loss term.
  VarId SoftmaxCrossEntropy(VarId logits, std::vector<int32_t> labels,
                            std::vector<float> class_weights = {});
  // Focal loss (Lin et al.): mean over rows of -(1-p_t)^gamma * log(p_t).
  VarId FocalLoss(VarId logits, std::vector<int32_t> labels, float gamma);
  // Mean squared error of pred (N x 1) against targets (size N). A mask
  // entry of 0 drops that row from the mean.
  VarId MseLoss(VarId pred, std::vector<float> targets,
                std::vector<float> mask = {});
  // Borrowing loss overloads: label/target/weight vectors are not copied
  // and must stay alive until the tape is Reset or destroyed. Null
  // class_weights / mask means "none".
  VarId SoftmaxCrossEntropy(VarId logits, const std::vector<int32_t>* labels,
                            const std::vector<float>* class_weights = nullptr);
  VarId FocalLoss(VarId logits, const std::vector<int32_t>* labels,
                  float gamma);
  VarId MseLoss(VarId pred, const std::vector<float>* targets,
                const std::vector<float>* mask = nullptr);

  // Runs reverse-mode accumulation from `root`, seeded with a copy of
  // `grad` as the root's gradient (same shape as its value; replaces any
  // grad the root already holds). A scalar loss seeds with a 1x1 one; a
  // caller that computed a node's gradient elsewhere (the trainer's per-task
  // head sub-tapes, core/trainer.cc) carries it on through the recorded ops.
  void BackwardFrom(VarId root, const Tensor& grad);

 private:
  struct Node {
    Tensor value;
    Tensor grad;  // this pass's gradient iff `reached`; else stale or empty
    bool reached = false;
    bool carries_grad = false;
    BackwardFn backward;  // empty unless an input carries a gradient
  };

  // Appends a node whose value is rows x cols with unspecified contents,
  // in the next slot's buffer.
  VarId PushNode(int64_t rows, int64_t cols);
  // Appends a node whose value is a copy of `v`.
  VarId PushCopy(const Tensor& v);
  // Appends the row-wise softmax of `logits` as an internal constant: the
  // fused losses keep their probabilities there for the backward.
  VarId PushProbs(VarId logits);
  // Marks node `id` (which starts without) as carrying a gradient when any
  // of `inputs` does, and returns whether it now does: an op records its
  // backward only then. An op with more inputs than one list holds calls
  // it once per list.
  bool TrackGrad(VarId id, std::span<const VarId> inputs) {
    bool& carries = nodes_[id].carries_grad;
    for (const VarId in : inputs) carries = carries || nodes_[in].carries_grad;
    return carries;
  }
  bool TrackGrad(VarId id, std::initializer_list<VarId> inputs) {
    return TrackGrad(id, std::span<const VarId>(inputs.begin(), inputs.size()));
  }
  // Returns the node's grad tensor, zero-filling it (same shape as the
  // value) and marking the node reached on first touch in this pass.
  Tensor& GradRef(VarId id) {
    Node& node = nodes_[id];
    if (!node.reached) {
      node.grad.ResizeUninit(node.value.rows(), node.value.cols());
      node.grad.Zero();
      node.reached = true;
    }
    return node.grad;
  }

  VarId LinearImpl(VarId x, VarId w, VarId bias, bool relu);
  VarId SegmentMeanImpl(VarId x, const std::vector<int32_t>* offsets,
                        const std::vector<int32_t>* indices,
                        std::shared_ptr<const void> owned);
  VarId GatherRowsImpl(VarId table, const std::vector<int32_t>* rows,
                       std::shared_ptr<const void> owned);
  // `h_ext` set: the detached form, reading h_ext and leaving factors.
  VarId ColumnAttentionImpl(VarId h, const Tensor* h_ext,
                            const std::vector<int32_t>* idx, VarId a,
                            int64_t num_blocks, AttentionScratch* scratch,
                            std::shared_ptr<const void> owned);
  VarId SoftmaxCrossEntropyImpl(VarId logits,
                                const std::vector<int32_t>* labels,
                                const std::vector<float>* class_weights,
                                std::shared_ptr<const void> owned);
  VarId FocalLossImpl(VarId logits, const std::vector<int32_t>* labels,
                      float gamma, std::shared_ptr<const void> owned);
  VarId MseLossImpl(VarId pred, const std::vector<float>* targets,
                    const std::vector<float>* mask,
                    std::shared_ptr<const void> owned);

  // A deque, so a reference to a node's tensors stays valid while an op
  // appends its own node.
  std::deque<Node> nodes_;
  VarId size_ = 0;  // live prefix of nodes_; slots beyond are reusable
};

// One edge type ("lane") of Tape::HeteroSage.
struct SageLane {
  // Set by the caller. The CSR has one segment per dst row and indexes
  // h_src rows; it is borrowed until the tape is Reset.
  const std::vector<int32_t>* offsets = nullptr;
  const std::vector<int32_t>* indices = nullptr;
  Tape::VarId weight = -1;  // (2 * in) x out
  Tape::VarId bias = -1;    // 1 x out
  // Output rows (SageScratch::out_rows maps them to dst rows).
  // rows[0, live): the rows whose dst segment is non-empty, ascending.
  // rows[live, end): rows whose row_scale is 0. They add 0 * y_t, which
  // keeps the signed zeros a masked chain leaves on nodes with no edges.
  std::vector<int32_t> rows;
  int64_t live = 0;
  // Sized by the op on the calling thread, reused across steps.
  Tensor x;   // rows x (2 * in): [h_dst row || segment mean]
  Tensor y;   // rows x out: the lane's output, then its upstream gradient
  Tensor dx;  // rows x (2 * in): the gradient of x
};

// Caller-owned state of one Tape::HeteroSage node. Keeping one per layer
// per thread (the Trainer, TransformMany's batch scratch) makes a steady
// stream of layer calls allocation-free: the vectors keep their capacity
// and the tensors their buffers. A scratch must not be shared by
// concurrent forwards.
struct SageScratch {
  std::vector<SageLane> lanes;
  // The dst rows the node computes, ascending: output row i is dst row
  // (*out_rows)[i]. Null computes every dst row. Borrowed until Reset.
  const std::vector<int32_t>* out_rows = nullptr;
  // Per output row: 1 / #lanes whose segment is non-empty, or 0 when none.
  std::vector<float> row_scale;
  // The output rows no lane's segment touches (HeteroSageLayer::Forward's
  // list, kept for its capacity).
  std::vector<int32_t> untouched;
};

// Caller-owned state of one Tape::ColumnAttention node over n vectors of
// C blocks of width D. Tensors are sized by the op (Tensor::ResizeUninit),
// so one kept per call site makes a steady stream of calls
// allocation-free. A scratch must not be shared by concurrent forwards.
struct AttentionScratch {
  Tensor scores;      // rows(h) x 1: <h row, a> / sqrt(D), by the forward
  Tensor alpha;       // n x C attention weights, written by the forward
  Tensor score_grad;  // n x C: dL/ds / sqrt(D), written by the backward
  // Detached form only, copied by the backward: dL/dout (n x D) and the
  // query a (1 x D).
  Tensor ctx_grad;
  Tensor query;
};

}  // namespace grimp

#endif  // GRIMP_TENSOR_TAPE_H_
