#include "core/tasks.h"

#include <memory>
#include <numeric>

namespace grimp {

LinearTaskHead::LinearTaskHead(std::string name, int num_cols, int dim,
                               int hidden, int out_dim, Rng* rng)
    : mlp_(std::move(name),
           {static_cast<int64_t>(num_cols) * dim, hidden, out_dim}, rng) {}

Tape::VarId TaskHead::ForwardRows(Tape* tape, Tape::VarId h,
                                  const std::vector<int32_t>* idx,
                                  int num_cols,
                                  AttentionScratch* /*scratch*/) const {
  const int64_t n = static_cast<int64_t>(idx->size()) / num_cols;
  Tape::VarId flat = tape->GatherRows(h, idx);
  return Forward(tape,
                 tape->Reshape(flat, n, num_cols * tape->value(h).cols()));
}

Tape::VarId LinearTaskHead::Forward(Tape* tape, Tape::VarId v) const {
  return mlp_.Forward(tape, v);
}

void LinearTaskHead::CollectParameters(std::vector<Parameter*>* out) {
  mlp_.CollectParameters(out);
}

std::vector<float> BuildKDiagonal(
    KStrategy strategy, int target_col, int num_cols,
    const std::vector<FunctionalDependency>& fds) {
  constexpr float kWeak = 0.3f;
  constexpr float kFdBoost = 0.6f;
  std::vector<float> diag(static_cast<size_t>(num_cols), 0.0f);
  switch (strategy) {
    case KStrategy::kDiagonal:
      for (float& w : diag) w = 1.0f;
      break;
    case KStrategy::kTargetColumn:
      diag[static_cast<size_t>(target_col)] = 1.0f;
      break;
    case KStrategy::kWeakDiagonal:
      for (float& w : diag) w = kWeak;
      diag[static_cast<size_t>(target_col)] = 1.0f;
      break;
    case KStrategy::kWeakDiagonalFd: {
      for (float& w : diag) w = kWeak;
      // Columns related to the target through any FD (the FD's other
      // attributes determine or are determined by the target).
      for (const FunctionalDependency& fd : fds) {
        bool involves_target = fd.rhs == target_col;
        for (int col : fd.lhs) involves_target |= col == target_col;
        if (!involves_target) continue;
        for (int col : fd.lhs) {
          if (col != target_col) diag[static_cast<size_t>(col)] = kFdBoost;
        }
        if (fd.rhs != target_col) {
          diag[static_cast<size_t>(fd.rhs)] = kFdBoost;
        }
      }
      diag[static_cast<size_t>(target_col)] = 1.0f;
      break;
    }
  }
  return diag;
}

AttentionTaskHead::AttentionTaskHead(std::string name,
                                     const Tensor& column_features,
                                     std::vector<float> k_diagonal, int dim,
                                     int out_dim, Rng* rng, int head_hidden)
    : num_cols_(static_cast<int>(column_features.rows())),
      q_(name + ".Q", column_features),
      k_(Tensor::Zeros(num_cols_, num_cols_)),
      m_(Tensor::Full(1, num_cols_, 1.0f)),
      head_(name + ".head",
            head_hidden > 0
                ? std::vector<int64_t>{dim, head_hidden, out_dim}
                : std::vector<int64_t>{dim, out_dim},
            rng) {
  GRIMP_CHECK_EQ(column_features.cols(), dim);
  GRIMP_CHECK_EQ(k_diagonal.size(), static_cast<size_t>(num_cols_));
  for (int c = 0; c < num_cols_; ++c) {
    k_.at(c, c) = k_diagonal[static_cast<size_t>(c)];
  }
}

Tape::VarId AttentionTaskHead::Query(Tape* tape) const {
  Tape::VarId q = tape->Leaf(&q_);
  Tape::VarId kq = tape->MatMul(tape->Constant(k_), q);  // C x D
  return tape->MatMul(tape->Constant(m_), kq);           // 1 x D
}

Tape::VarId AttentionTaskHead::Forward(Tape* tape, Tape::VarId v) const {
  const Tensor& vv = tape->value(v);
  const int64_t blocks = vv.rows() * num_cols_;
  auto identity = std::make_shared<std::vector<int32_t>>(
      static_cast<size_t>(blocks));
  std::iota(identity->begin(), identity->end(), 0);
  const std::vector<int32_t>* idx = identity.get();
  Tape::VarId flat = tape->Reshape(v, blocks, vv.cols() / num_cols_);
  return head_.Forward(tape,
                       tape->ColumnAttention(flat, idx, Query(tape),
                                             num_cols_, nullptr,
                                             std::move(identity)));
}

Tape::VarId AttentionTaskHead::ForwardRows(Tape* tape, Tape::VarId h,
                                           const std::vector<int32_t>* idx,
                                           int num_cols,
                                           AttentionScratch* scratch) const {
  GRIMP_CHECK_EQ(num_cols, num_cols_);
  return head_.Forward(tape, tape->ColumnAttention(h, idx, Query(tape),
                                                   num_cols_, scratch));
}

Tape::VarId AttentionTaskHead::ForwardDetached(
    Tape* tape, const Tensor* h, const std::vector<int32_t>* idx,
    AttentionScratch* scratch) const {
  return head_.Forward(tape, tape->ColumnAttention(h, idx, Query(tape),
                                                   num_cols_, scratch));
}

void AttentionTaskHead::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&q_);
  head_.CollectParameters(out);
}

int64_t AttentionTaskHead::NumParameters() const {
  return q_.value.size() + head_.NumParameters();
}

}  // namespace grimp
