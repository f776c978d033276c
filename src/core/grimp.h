#ifndef GRIMP_CORE_GRIMP_H_
#define GRIMP_CORE_GRIMP_H_

#include <string>
#include <utility>

#include "core/options.h"
#include "core/trainer.h"
#include "eval/imputer.h"

namespace grimp {

// The GRIMP imputation system (paper §3) as an ImputationAlgorithm: a thin
// adapter over GrimpEngine::FitImpute (engine.h), which trains on the
// dirty table and imputes that same table. See options.h for the paper
// defaults and the ablation switches.
//
// Usage:
//   GrimpOptions opts;
//   opts.features = FeatureInitKind::kEmbdi;   // GRIMP-E
//   GrimpImputer grimp(opts);
//   GRIMP_ASSIGN_OR_RETURN(Table imputed, grimp.Impute(dirty));
class GrimpImputer : public ImputationAlgorithm {
 public:
  // Thread-count and SIMD choices take effect when Impute runs.
  explicit GrimpImputer(GrimpOptions options)
      : options_(std::move(options)) {}

  std::string name() const override;
  Result<Table> Impute(const Table& dirty) override;

  const GrimpOptions& options() const { return options_; }
  // Training summary of the last successful Impute() (see trainer.h). For
  // per-epoch telemetry while training runs, use GrimpOptions::callbacks
  // or the MetricsRegistry series / spans.
  const TrainSummary& summary() const { return summary_; }

 private:
  GrimpOptions options_;
  TrainSummary summary_;
};

}  // namespace grimp

#endif  // GRIMP_CORE_GRIMP_H_
