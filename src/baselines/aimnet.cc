#include "baselines/aimnet.h"

#include "common/trace.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "table/normalizer.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"

namespace grimp {

namespace {

struct TargetModel {
  int col = -1;
  bool categorical = true;
  Parameter query;          // 1 x d
  Linear head;              // d -> |dom| or 1
  std::vector<int64_t> observed;
  std::vector<int64_t> missing;
  std::vector<int32_t> labels;   // categorical targets
  std::vector<float> targets;    // numerical targets (normalized)
};

}  // namespace

Result<Table> AimNetImputer::Impute(const Table& dirty) {
  GRIMP_TRACE_SPAN("impute." + name());
  const int64_t n = dirty.num_rows();
  const int m = dirty.num_cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty table");
  const int d = options_.dim;
  Rng rng(options_.seed);
  const Normalizer normalizer = Normalizer::Fit(dirty);

  // Shared per-attribute value embeddings / numeric projections.
  std::vector<Parameter> embeddings(static_cast<size_t>(m));
  std::vector<Linear> num_proj(static_cast<size_t>(m));
  for (int c = 0; c < m; ++c) {
    const Column& col = dirty.column(c);
    if (col.is_categorical()) {
      embeddings[static_cast<size_t>(c)] =
          Parameter("emb." + col.name(),
                    Tensor::GlorotUniform(std::max(1, col.dict().size()), d,
                                          &rng));
    } else {
      num_proj[static_cast<size_t>(c)] =
          Linear("proj." + col.name(), 1, d, &rng);
    }
  }

  // Per-target query + head, plus the observed/missing row partitions.
  std::vector<TargetModel> targets;
  for (int c = 0; c < m; ++c) {
    const Column& col = dirty.column(c);
    TargetModel t;
    t.col = c;
    t.categorical = col.is_categorical();
    t.query = Parameter("q." + col.name(),
                        Tensor::GlorotUniform(1, d, &rng));
    t.head = Linear("head." + col.name(), d,
                    t.categorical ? std::max(1, col.dict().size()) : 1, &rng);
    for (int64_t r = 0; r < n; ++r) {
      if (col.IsMissing(r)) {
        t.missing.push_back(r);
      } else {
        t.observed.push_back(r);
        if (t.categorical) {
          t.labels.push_back(col.CodeAt(r));
        } else {
          t.targets.push_back(static_cast<float>(
              normalizer.Normalize(c, col.NumAt(r))));
        }
      }
    }
    targets.push_back(std::move(t));
  }

  std::vector<Parameter*> params;
  for (int c = 0; c < m; ++c) {
    if (dirty.column(c).is_categorical()) {
      params.push_back(&embeddings[static_cast<size_t>(c)]);
    } else {
      num_proj[static_cast<size_t>(c)].CollectParameters(&params);
    }
  }
  for (TargetModel& t : targets) {
    params.push_back(&t.query);
    t.head.CollectParameters(&params);
  }
  Adam opt(params, options_.learning_rate);

  // Builds the attention context for `rows` with the target column masked,
  // then applies the target's head.
  auto forward = [&](Tape* tape, TargetModel& t,
                     const std::vector<int64_t>& rows) {
    std::vector<Tape::VarId> blocks;
    blocks.reserve(static_cast<size_t>(m));
    for (int c = 0; c < m; ++c) {
      const Column& col = dirty.column(c);
      if (c == t.col) {
        blocks.push_back(tape->Constant(
            Tensor::Zeros(static_cast<int64_t>(rows.size()), d)));
        continue;
      }
      if (col.is_categorical()) {
        std::vector<int32_t> codes;
        codes.reserve(rows.size());
        for (int64_t r : rows) codes.push_back(col.CodeAt(r));  // -1 == miss
        blocks.push_back(tape->GatherRows(
            tape->Leaf(&embeddings[static_cast<size_t>(c)]),
            std::move(codes)));
      } else {
        Tensor values(static_cast<int64_t>(rows.size()), 1);
        std::vector<float> present(rows.size(), 0.0f);
        for (size_t i = 0; i < rows.size(); ++i) {
          if (!col.IsMissing(rows[i])) {
            values.at(static_cast<int64_t>(i), 0) = static_cast<float>(
                normalizer.Normalize(c, col.NumAt(rows[i])));
            present[i] = 1.0f;
          }
        }
        Tape::VarId proj = num_proj[static_cast<size_t>(c)].Forward(
            tape, tape->Constant(values));
        blocks.push_back(tape->RowScale(proj, std::move(present)));
      }
    }
    // The N x (m*d) vectors as N*m rows of d, attended through an
    // identity index.
    const int64_t cells = static_cast<int64_t>(rows.size()) * m;
    auto identity =
        std::make_shared<std::vector<int32_t>>(static_cast<size_t>(cells));
    std::iota(identity->begin(), identity->end(), 0);
    const std::vector<int32_t>* idx = identity.get();
    Tape::VarId v = tape->Reshape(tape->ConcatCols(blocks), cells, d);
    Tape::VarId ctx =
        tape->ColumnAttention(v, idx, tape->Leaf(&t.query), m,
                              /*scratch=*/nullptr, std::move(identity));
    return t.head.Forward(tape, ctx);  // ctx: N x d
  };

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    Tape tape;
    Tape::VarId total = -1;
    for (TargetModel& t : targets) {
      if (t.observed.empty()) continue;
      Tape::VarId out = forward(&tape, t, t.observed);
      Tape::VarId loss = t.categorical
                             ? tape.SoftmaxCrossEntropy(out, t.labels)
                             : tape.MseLoss(out, t.targets);
      total = total < 0 ? loss : tape.Add(total, loss);
    }
    if (total < 0) break;
    tape.BackwardFrom(total, Tensor::Scalar(1.0f));
    opt.ClipGradNorm(5.0f);
    opt.Step();
    opt.ZeroGrad();
  }

  // Imputation.
  Table imputed = dirty;
  Tape tape;
  for (TargetModel& t : targets) {
    if (t.missing.empty() || t.observed.empty()) continue;
    Tape::VarId out = forward(&tape, t, t.missing);
    const Tensor& scores = tape.value(out);
    Column& dst = imputed.mutable_column(t.col);
    for (size_t i = 0; i < t.missing.size(); ++i) {
      if (t.categorical) {
        const int32_t best = dst.dict().ArgmaxLive(
            scores.data() + static_cast<int64_t>(i) * scores.cols());
        if (best >= 0) dst.SetFromCode(t.missing[i], best);
      } else {
        dst.SetNumerical(
            t.missing[i],
            normalizer.Denormalize(t.col,
                                   scores.at(static_cast<int64_t>(i), 0)));
      }
    }
  }
  return imputed;
}

}  // namespace grimp
