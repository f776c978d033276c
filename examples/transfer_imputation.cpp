// Inductive reuse (paper §7): fit GRIMP once on a source table, then
// impute a different table with the same schema — without retraining.
// Compares zero-shot transfer against (a) training directly on the target
// and (b) mode imputation.
//
//   ./examples/transfer_imputation [source_rows] [target_rows]

#include <cstdlib>
#include <iostream>

#include "baselines/mean_mode.h"
#include "core/engine.h"
#include "data/datasets.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/runner.h"

namespace {

// Imputes a copy of `table` with the engine's inference call.
grimp::Result<grimp::Table> ImputeCopy(const grimp::GrimpEngine& engine,
                                       grimp::Table table) {
  grimp::Table* one[] = {&table};
  GRIMP_RETURN_IF_ERROR(engine.TransformMany(one));
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grimp;
  const int64_t source_rows = argc > 1 ? std::atoll(argv[1]) : 400;
  const int64_t target_rows = argc > 2 ? std::atoll(argv[2]) : 200;

  // One draw from the distribution, split into disjoint source / target
  // row sets (same schema and value domains, different tuples).
  auto all_or = GenerateDatasetByName("adult", /*seed=*/31,
                                      source_rows + target_rows);
  if (!all_or.ok()) {
    std::cerr << all_or.status().ToString() << "\n";
    return 1;
  }
  const CsvData csv = all_or->ToCsv();
  Table source(all_or->schema());
  Table target_clean(all_or->schema());
  for (int64_t r = 0; r < all_or->num_rows(); ++r) {
    Table& dst = r < source_rows ? source : target_clean;
    if (Status st = dst.AppendRow(csv.rows[static_cast<size_t>(r)]);
        !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  const CorruptedTable corrupted = InjectMcar(target_clean, 0.2, 5);
  std::cout << "source: " << source.num_rows() << " rows; target: "
            << target_clean.num_rows() << " rows, "
            << corrupted.missing_cells.size() << " cells blanked\n\n";

  GrimpOptions options;
  options.max_epochs = 100;

  // (a) Zero-shot: fit on source, persist to disk, reload, transform the
  // target — the full deploy-a-trained-model workflow.
  GrimpEngine engine(options);
  if (Status st = engine.Fit(source); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  const std::string model_path = "/tmp/grimp_transfer.model";
  if (Status st = engine.Save(model_path); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  auto loaded = GrimpEngine::Load(model_path);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }
  std::cout << "model saved to and reloaded from " << model_path << "\n";
  auto transferred = ImputeCopy(**loaded, corrupted.dirty);
  if (!transferred.ok()) {
    std::cerr << transferred.status().ToString() << "\n";
    return 1;
  }
  const ImputationScore zero_shot =
      ScoreImputation(*transferred, corrupted, target_clean);

  // (b) Trained directly on the (dirty) target.
  GrimpEngine direct_engine(options);
  if (Status st = direct_engine.Fit(corrupted.dirty); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  auto direct = ImputeCopy(direct_engine, corrupted.dirty);
  const ImputationScore direct_score =
      direct.ok() ? ScoreImputation(*direct, corrupted, target_clean)
                  : ImputationScore{};

  // (c) Mode baseline.
  MeanModeImputer mode;
  Table mode_out;
  RunAlgorithm(target_clean, corrupted, &mode, &mode_out);
  const ImputationScore mode_score =
      ScoreImputation(mode_out, corrupted, target_clean);

  TextTable table({"setting", "accuracy", "rmse"});
  table.AddRow({"zero-shot transfer (fit on source)",
                TextTable::Num(zero_shot.Accuracy(), 3),
                TextTable::Num(zero_shot.Rmse(), 3)});
  table.AddRow({"trained on target",
                TextTable::Num(direct_score.Accuracy(), 3),
                TextTable::Num(direct_score.Rmse(), 3)});
  table.AddRow({"mode/mean baseline",
                TextTable::Num(mode_score.Accuracy(), 3),
                TextTable::Num(mode_score.Rmse(), 3)});
  table.Print(std::cout);
  std::cout << "\nZero-shot transfer reuses the trained message passing and "
               "task heads; it should land between the mode baseline and "
               "the directly-trained model (and approach the latter when "
               "source and target share their distribution).\n";
  return 0;
}
