#include "core/grimp.h"

#include "core/engine.h"

namespace grimp {

std::string GrimpImputer::name() const {
  std::string n = "GRIMP";
  switch (options_.features) {
    case FeatureInitKind::kNgram:
      n += "-FT";
      break;
    case FeatureInitKind::kEmbdi:
      n += "-E";
      break;
    case FeatureInitKind::kRandom:
      n += "-R";
      break;
  }
  if (!options_.multi_task) {
    return options_.use_gnn ? "GNN-MC" : "EmbDI-MC";
  }
  if (options_.task_kind == TaskKind::kLinear) n += "-Lin";
  if (options_.k_strategy == KStrategy::kWeakDiagonalFd) n += "-A(FD)";
  return n;
}

Result<Table> GrimpImputer::Impute(const Table& dirty) {
  summary_ = TrainSummary{};
  GrimpEngine engine(options_);
  GRIMP_ASSIGN_OR_RETURN(Table imputed, engine.FitImpute(dirty));
  summary_ = engine.summary();
  return imputed;
}

}  // namespace grimp
