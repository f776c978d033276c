#ifndef GRIMP_CORE_TASKS_H_
#define GRIMP_CORE_TASKS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "tensor/nn.h"
#include "tensor/tape.h"

namespace grimp {

// A task-specific head (paper §3.5): consumes the task's training vectors
// (N x (C*D), C column blocks of width D) and emits logits (categorical,
// N x |Dom(A)|) or a single regression output (numerical, N x 1).
class TaskHead {
 public:
  virtual ~TaskHead() = default;

  virtual Tape::VarId Forward(Tape* tape, Tape::VarId v) const = 0;
  // The head over vectors read from rows of `h`: vector i is rows
  // idx[i * num_cols .. (i + 1) * num_cols) of h side by side, a zero block
  // for each -1. `idx` is borrowed until the tape is Reset. `scratch` is an
  // attention head's per-call state (see AttentionScratch; null makes a
  // tape-owned one); other heads ignore it. By default GatherRows ->
  // Reshape -> Forward.
  virtual Tape::VarId ForwardRows(Tape* tape, Tape::VarId h,
                                  const std::vector<int32_t>* idx,
                                  int num_cols,
                                  AttentionScratch* scratch) const;
  virtual void CollectParameters(std::vector<Parameter*>* out) = 0;
  virtual int64_t NumParameters() const = 0;
  // Classifier heads: initialize the output bias to log class priors so
  // rare values start correctly downweighted (no-op by default).
  virtual void SetOutputBias(const std::vector<float>& bias) { (void)bias; }
};

// Up-to-three fully connected layers on the flattened training vector
// ("Linear" rows of Table 2).
class LinearTaskHead : public TaskHead {
 public:
  LinearTaskHead(std::string name, int num_cols, int dim, int hidden,
                 int out_dim, Rng* rng);

  Tape::VarId Forward(Tape* tape, Tape::VarId v) const override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  int64_t NumParameters() const override { return mlp_.NumParameters(); }
  void SetOutputBias(const std::vector<float>& bias) override {
    mlp_.SetOutputBias(bias);
  }

 private:
  Mlp mlp_;
};

// Per-column weights on the diagonal of the selection matrix K
// (paper Fig. 7). FD-related columns are those sharing an FD with
// `target_col`.
std::vector<float> BuildKDiagonal(KStrategy strategy, int target_col,
                                  int num_cols,
                                  const std::vector<FunctionalDependency>& fds);

// Attention head (paper Fig. 6, concretized as in DESIGN.md):
//   a      = m * (K * Q)          -- 1 x D attention query
//   s[n,c] = <v[n, block c], a> / sqrt(D)
//   alpha  = softmax_c(s)
//   ctx[n] = sum_c alpha[n,c] * v[n, block c]
//   out    = Linear(ctx)
// Q is trainable and initialized from the pre-trained column vectors; K is
// the fixed diagonal selection matrix; m is the all-ones pooling vector.
// s, alpha and ctx are one Tape::ColumnAttention node, which reads the
// blocks straight from the shared representation; alpha is left in the
// caller's AttentionScratch. A head holds no per-call state, so concurrent
// forwards on one fitted model are race-free as long as each brings its
// own scratch — the invariant the serving layer's batched TransformMany
// relies on.
class AttentionTaskHead : public TaskHead {
 public:
  // `head_hidden` is the width of the two-layer prediction head applied to
  // the pooled context (the paper allows up to three linear layers per
  // task; 0 selects a single linear layer).
  AttentionTaskHead(std::string name, const Tensor& column_features,
                    std::vector<float> k_diagonal, int dim, int out_dim,
                    Rng* rng, int head_hidden = 64);

  // Over materialized N x (C*D) vectors: ColumnAttention over their blocks
  // (a Reshape to N*C x D) through an identity index.
  Tape::VarId Forward(Tape* tape, Tape::VarId v) const override;
  Tape::VarId ForwardRows(Tape* tape, Tape::VarId h,
                          const std::vector<int32_t>* idx, int num_cols,
                          AttentionScratch* scratch) const override;
  // Full-mode training's form (core/trainer.cc): the detached
  // ColumnAttention over `h`, a tensor off this tape borrowed until Reset.
  // The backward leaves the gradient with respect to h as factors in
  // *scratch.
  Tape::VarId ForwardDetached(Tape* tape, const Tensor* h,
                              const std::vector<int32_t>* idx,
                              AttentionScratch* scratch) const;
  void CollectParameters(std::vector<Parameter*>* out) override;
  int64_t NumParameters() const override;
  void SetOutputBias(const std::vector<float>& bias) override {
    head_.SetOutputBias(bias);
  }

 private:
  // Records the query a = m * (K * Q) (1 x D).
  Tape::VarId Query(Tape* tape) const;

  int num_cols_;
  mutable Parameter q_;  // C x D
  Tensor k_;             // C x C fixed diagonal selection matrix
  Tensor m_;             // 1 x C ones
  Mlp head_;             // D -> (hidden) -> out_dim
};

}  // namespace grimp

#endif  // GRIMP_CORE_TASKS_H_
