#include "baselines/mida.h"

#include "common/trace.h"

#include <algorithm>
#include <vector>

#include "baselines/featurize.h"
#include "table/normalizer.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"

namespace grimp {

Result<Table> MidaImputer::Impute(const Table& dirty) {
  GRIMP_TRACE_SPAN("impute." + name());
  const int64_t n = dirty.num_rows();
  const int m = dirty.num_cols();
  if (n == 0 || m == 0) return Status::InvalidArgument("empty table");
  Rng rng(options_.seed);
  const Normalizer normalizer = Normalizer::Fit(dirty);

  // Feature layout: one block per column.
  std::vector<OneHotPlan> plans(static_cast<size_t>(m));
  std::vector<int> block_offset(static_cast<size_t>(m) + 1, 0);
  for (int c = 0; c < m; ++c) {
    const Column& col = dirty.column(c);
    int width = 1;
    if (col.is_categorical()) {
      plans[static_cast<size_t>(c)] = PlanOneHot(col, options_.max_onehot);
      width = plans[static_cast<size_t>(c)].width;
    }
    block_offset[static_cast<size_t>(c) + 1] =
        block_offset[static_cast<size_t>(c)] + width;
  }
  const int f = block_offset[static_cast<size_t>(m)];

  // Dense encoding of the dirty table plus the observation mask.
  Tensor x(n, f);
  Tensor mask(n, f);  // 1 on every slot belonging to an observed cell
  for (int64_t r = 0; r < n; ++r) {
    for (int c = 0; c < m; ++c) {
      const Column& col = dirty.column(c);
      if (col.IsMissing(r)) continue;
      const int off = block_offset[static_cast<size_t>(c)];
      if (col.is_categorical()) {
        const OneHotPlan& plan = plans[static_cast<size_t>(c)];
        for (int s = 0; s < plan.width; ++s) mask.at(r, off + s) = 1.0f;
        const int slot = plan.slot_of_code[static_cast<size_t>(col.CodeAt(r))];
        if (slot >= 0) x.at(r, off + slot) = 1.0f;
      } else {
        mask.at(r, off) = 1.0f;
        x.at(r, off) =
            static_cast<float>(normalizer.Normalize(c, col.NumAt(r)));
      }
    }
  }

  // Overcomplete denoising autoencoder (MIDA uses an expanding encoder).
  Mlp encoder("mida.enc", {f, options_.hidden, options_.code_dim}, &rng);
  Mlp decoder("mida.dec", {options_.code_dim, options_.hidden, f}, &rng);
  std::vector<Parameter*> params;
  encoder.CollectParameters(&params);
  decoder.CollectParameters(&params);
  Adam opt(params, options_.learning_rate);

  const float inv_observed =
      1.0f / std::max(1.0f, mask.Sum());
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    // Extra block-level input corruption (denoising objective).
    Tensor corrupted = x;
    for (int64_t r = 0; r < n; ++r) {
      for (int c = 0; c < m; ++c) {
        if (dirty.IsMissing(r, c)) continue;
        if (!rng.Bernoulli(options_.dropout)) continue;
        const int off = block_offset[static_cast<size_t>(c)];
        const int end = block_offset[static_cast<size_t>(c) + 1];
        for (int s = off; s < end; ++s) corrupted.at(r, s) = 0.0f;
      }
    }
    Tape tape;
    Tape::VarId code = tape.Relu(
        encoder.Forward(&tape, tape.Constant(corrupted)));
    Tape::VarId recon = decoder.Forward(&tape, code);
    // Masked squared reconstruction error over observed slots.
    Tape::VarId diff =
        tape.Add(recon, tape.Scale(tape.Constant(x), -1.0f));
    Tape::VarId sq = tape.Mul(diff, diff);
    Tape::VarId masked = tape.Mul(sq, tape.Constant(mask));
    Tape::VarId loss = tape.Scale(tape.SumAll(masked), inv_observed);
    tape.BackwardFrom(loss, Tensor::Scalar(1.0f));
    opt.ClipGradNorm(5.0f);
    opt.Step();
    opt.ZeroGrad();
  }

  // Decode the clean-input reconstruction into the missing cells.
  Tape tape;
  Tape::VarId code = tape.Relu(encoder.Forward(&tape, tape.Constant(x)));
  const Tensor& recon = tape.value(decoder.Forward(&tape, code));
  Table imputed = dirty;
  for (int64_t r = 0; r < n; ++r) {
    for (int c = 0; c < m; ++c) {
      if (!dirty.IsMissing(r, c)) continue;
      Column& dst = imputed.mutable_column(c);
      const int off = block_offset[static_cast<size_t>(c)];
      if (dst.is_categorical()) {
        const OneHotPlan& plan = plans[static_cast<size_t>(c)];
        int best_slot = -1;
        float best = 0.0f;
        for (int s = 0; s < plan.width; ++s) {
          if (best_slot < 0 || recon.at(r, off + s) > best) {
            best = recon.at(r, off + s);
            best_slot = s;
          }
        }
        if (best_slot >= 0 &&
            plan.code_of_slot[static_cast<size_t>(best_slot)] >= 0) {
          // Coercion back into the active domain, the documented weakness
          // of numeric-output generative imputers.
          dst.SetFromCode(r,
                          plan.code_of_slot[static_cast<size_t>(best_slot)]);
        }
      } else {
        dst.SetNumerical(r, normalizer.Denormalize(c, recon.at(r, off)));
      }
    }
  }
  return imputed;
}

}  // namespace grimp
