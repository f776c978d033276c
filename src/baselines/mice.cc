#include "baselines/mice.h"

#include "common/trace.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "baselines/featurize.h"
#include "table/normalizer.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"

namespace grimp {


Result<Table> MiceImputer::Impute(const Table& dirty) {
  GRIMP_TRACE_SPAN("impute." + name());
  const int64_t n = dirty.num_rows();
  const int m = dirty.num_cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty table");
  Rng rng(options_.seed);
  const Normalizer normalizer = Normalizer::Fit(dirty);

  // Working state: current imputed code (categorical) / value (numerical)
  // per cell, initialized with mode/mean.
  std::vector<std::vector<int32_t>> codes(static_cast<size_t>(m));
  std::vector<std::vector<double>> nums(static_cast<size_t>(m));
  std::vector<OneHotPlan> plans(static_cast<size_t>(m));
  for (int c = 0; c < m; ++c) {
    const Column& col = dirty.column(c);
    plans[static_cast<size_t>(c)] = PlanOneHot(col, options_.max_onehot);
    auto& cc = codes[static_cast<size_t>(c)];
    auto& nn = nums[static_cast<size_t>(c)];
    cc.assign(static_cast<size_t>(n), 0);
    nn.assign(static_cast<size_t>(n), 0.0);
    const int32_t mode = col.dict().MostFrequent();
    double mean = 0.0, std = 1.0;
    if (!col.is_categorical()) col.NumericMoments(&mean, &std);
    for (int64_t r = 0; r < n; ++r) {
      if (col.IsMissing(r)) {
        cc[static_cast<size_t>(r)] = mode >= 0 ? mode : 0;
        nn[static_cast<size_t>(r)] = mean;
      } else {
        cc[static_cast<size_t>(r)] = col.CodeAt(r);
        if (!col.is_categorical()) nn[static_cast<size_t>(r)] = col.NumAt(r);
      }
    }
  }

  // Design-matrix layout: one block per feature column (one-hot for
  // categorical, single normalized scalar for numerical).
  std::vector<int> block_offset(static_cast<size_t>(m) + 1, 0);
  for (int c = 0; c < m; ++c) {
    const int width = dirty.column(c).is_categorical()
                          ? plans[static_cast<size_t>(c)].width
                          : 1;
    block_offset[static_cast<size_t>(c) + 1] =
        block_offset[static_cast<size_t>(c)] + width;
  }
  const int total_width = block_offset[static_cast<size_t>(m)];

  // Builds the design matrix for `rows`, excluding column `target`.
  auto featurize = [&](int target, const std::vector<int64_t>& rows) {
    Tensor x(static_cast<int64_t>(rows.size()), total_width);
    for (size_t i = 0; i < rows.size(); ++i) {
      const int64_t r = rows[i];
      for (int c = 0; c < m; ++c) {
        if (c == target) continue;  // excluded block stays zero
        const int off = block_offset[static_cast<size_t>(c)];
        if (dirty.column(c).is_categorical()) {
          const int slot = plans[static_cast<size_t>(c)].slot_of_code[
              static_cast<size_t>(codes[static_cast<size_t>(c)][
                  static_cast<size_t>(r)])];
          if (slot >= 0) {
            x.at(static_cast<int64_t>(i), off + slot) = 1.0f;
          }
        } else {
          x.at(static_cast<int64_t>(i), off) = static_cast<float>(
              normalizer.Normalize(c, nums[static_cast<size_t>(c)][
                  static_cast<size_t>(r)]));
        }
      }
    }
    return x;
  };

  // Incomplete columns, ascending by missingness (standard MICE order).
  struct Work {
    int col;
    std::vector<int64_t> observed;
    std::vector<int64_t> missing;
  };
  std::vector<Work> work;
  for (int c = 0; c < m; ++c) {
    Work w;
    w.col = c;
    for (int64_t r = 0; r < n; ++r) {
      (dirty.IsMissing(r, c) ? w.missing : w.observed).push_back(r);
    }
    if (!w.missing.empty() && !w.observed.empty()) {
      work.push_back(std::move(w));
    }
  }
  std::sort(work.begin(), work.end(), [](const Work& a, const Work& b) {
    return a.missing.size() < b.missing.size();
  });

  for (int round = 0; round < options_.rounds; ++round) {
    for (const Work& w : work) {
      const Column& col = dirty.column(w.col);
      const bool categorical = col.is_categorical();
      const int out_dim = categorical ? std::max(1, col.dict().size()) : 1;
      Linear model("mice.c" + std::to_string(w.col), total_width, out_dim,
                   &rng);
      std::vector<Parameter*> params;
      model.CollectParameters(&params);
      Adam opt(params, options_.learning_rate);

      const Tensor x_obs = featurize(w.col, w.observed);
      std::vector<int32_t> labels;
      std::vector<float> targets;
      for (int64_t r : w.observed) {
        if (categorical) {
          labels.push_back(col.CodeAt(r));
        } else {
          targets.push_back(
              static_cast<float>(normalizer.Normalize(w.col, col.NumAt(r))));
        }
      }
      for (int step = 0; step < options_.steps_per_model; ++step) {
        Tape tape;
        Tape::VarId out = model.Forward(&tape, tape.Constant(x_obs));
        Tape::VarId loss = categorical
                               ? tape.SoftmaxCrossEntropy(out, labels)
                               : tape.MseLoss(out, targets);
        tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
        opt.Step();
        opt.ZeroGrad();
      }

      // Re-impute the missing cells of this column.
      const Tensor x_mis = featurize(w.col, w.missing);
      Tape tape;
      const Tensor& scores =
          tape.value(model.Forward(&tape, tape.Constant(x_mis)));
      for (size_t i = 0; i < w.missing.size(); ++i) {
        const int64_t r = w.missing[i];
        if (categorical) {
          const int32_t best = col.dict().ArgmaxLive(
              scores.data() + static_cast<int64_t>(i) * scores.cols());
          if (best >= 0) {
            codes[static_cast<size_t>(w.col)][static_cast<size_t>(r)] = best;
          }
        } else {
          nums[static_cast<size_t>(w.col)][static_cast<size_t>(r)] =
              normalizer.Denormalize(w.col, scores.at(static_cast<int64_t>(i),
                                                      0));
        }
      }
    }
  }

  Table imputed = dirty;
  for (const Work& w : work) {
    Column& dst = imputed.mutable_column(w.col);
    for (int64_t r : w.missing) {
      if (dst.is_categorical()) {
        dst.SetFromCode(r, codes[static_cast<size_t>(w.col)][
            static_cast<size_t>(r)]);
      } else {
        dst.SetNumerical(r, nums[static_cast<size_t>(w.col)][
            static_cast<size_t>(r)]);
      }
    }
  }
  return imputed;
}

}  // namespace grimp
