#include "baselines/datawig.h"

#include "common/trace.h"

#include <algorithm>
#include <vector>

#include "embedding/ngram_init.h"
#include "table/normalizer.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"

namespace grimp {

namespace {

// Per-target model, fully independent of the other targets (the defining
// DataWig property the paper calls out).
struct PerTargetModel {
  std::vector<Parameter> embeddings;  // per categorical context column
  std::vector<Linear> num_proj;       // per numerical context column
  Mlp mlp;
};

}  // namespace

Result<Table> DataWigImputer::Impute(const Table& dirty) {
  GRIMP_TRACE_SPAN("impute." + name());
  const int64_t n = dirty.num_rows();
  const int m = dirty.num_cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty table");
  Rng rng(options_.seed);
  const Normalizer normalizer = Normalizer::Fit(dirty);
  const NgramFeatureInit ngram;
  const int d = options_.embed_dim;

  Table imputed = dirty;
  for (int target = 0; target < m; ++target) {
    const Column& target_col = dirty.column(target);
    std::vector<int64_t> observed, missing;
    for (int64_t r = 0; r < n; ++r) {
      (target_col.IsMissing(r) ? missing : observed).push_back(r);
    }
    if (missing.empty() || observed.empty()) continue;

    // Build this target's private model.
    PerTargetModel model{
        std::vector<Parameter>(static_cast<size_t>(m)),
        std::vector<Linear>(static_cast<size_t>(m)),
        Mlp("dwig.t" + std::to_string(target),
            {static_cast<int64_t>(m - 1) * d, options_.hidden,
             target_col.is_categorical()
                 ? std::max(1, target_col.dict().size())
                 : 1},
            &rng)};
    std::vector<Parameter*> params;
    for (int c = 0; c < m; ++c) {
      if (c == target) continue;
      const Column& col = dirty.column(c);
      if (col.is_categorical()) {
        // Embeddings start from the n-gram hash of the value string, so
        // lexically similar categories share representation mass.
        Tensor init(std::max(1, col.dict().size()), d);
        for (int32_t code = 0; code < col.dict().size(); ++code) {
          const std::vector<float> vec = ngram.EmbedString(
              col.dict().ValueOf(code), d, options_.seed);
          for (int k = 0; k < d; ++k) init.at(code, k) = vec[
              static_cast<size_t>(k)];
        }
        model.embeddings[static_cast<size_t>(c)] =
            Parameter("dwig.emb." + col.name(), std::move(init));
        params.push_back(&model.embeddings[static_cast<size_t>(c)]);
      } else {
        model.num_proj[static_cast<size_t>(c)] =
            Linear("dwig.proj." + col.name(), 1, d, &rng);
        model.num_proj[static_cast<size_t>(c)].CollectParameters(&params);
      }
    }
    model.mlp.CollectParameters(&params);
    Adam opt(params, options_.learning_rate);

    auto forward = [&](Tape* tape, const std::vector<int64_t>& rows) {
      std::vector<Tape::VarId> blocks;
      for (int c = 0; c < m; ++c) {
        if (c == target) continue;
        const Column& col = dirty.column(c);
        if (col.is_categorical()) {
          std::vector<int32_t> codes;
          codes.reserve(rows.size());
          for (int64_t r : rows) codes.push_back(col.CodeAt(r));
          blocks.push_back(tape->GatherRows(
              tape->Leaf(&model.embeddings[static_cast<size_t>(c)]),
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
          Tape::VarId proj = model.num_proj[static_cast<size_t>(c)].Forward(
              tape, tape->Constant(values));
          blocks.push_back(tape->RowScale(proj, std::move(present)));
        }
      }
      return model.mlp.Forward(tape, tape->ConcatCols(blocks));
    };

    // Targets.
    std::vector<int32_t> labels;
    std::vector<float> reg_targets;
    for (int64_t r : observed) {
      if (target_col.is_categorical()) {
        labels.push_back(target_col.CodeAt(r));
      } else {
        reg_targets.push_back(static_cast<float>(
            normalizer.Normalize(target, target_col.NumAt(r))));
      }
    }

    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      Tape tape;
      Tape::VarId out = forward(&tape, observed);
      Tape::VarId loss = target_col.is_categorical()
                             ? tape.SoftmaxCrossEntropy(out, labels)
                             : tape.MseLoss(out, reg_targets);
      tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
      opt.ClipGradNorm(5.0f);
      opt.Step();
      opt.ZeroGrad();
    }

    // Impute this target's missing cells.
    Tape tape;
    Tape::VarId out = forward(&tape, missing);
    const Tensor& scores = tape.value(out);
    Column& dst = imputed.mutable_column(target);
    for (size_t i = 0; i < missing.size(); ++i) {
      if (target_col.is_categorical()) {
        const int32_t best = target_col.dict().ArgmaxLive(
            scores.data() + static_cast<int64_t>(i) * scores.cols());
        if (best >= 0) dst.SetFromCode(missing[i], best);
      } else {
        dst.SetNumerical(
            missing[i],
            normalizer.Denormalize(target,
                                   scores.at(static_cast<int64_t>(i), 0)));
      }
    }
  }
  return imputed;
}

}  // namespace grimp
