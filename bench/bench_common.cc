#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "baselines/aimnet.h"
#include "baselines/knn.h"
#include "baselines/missforest.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/names.h"
#include "eval/error_analysis.h"
#include "eval/report.h"

namespace grimp {
namespace bench {

int HardwareConcurrency() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

int ResolveMaxThreads() {
  return EnvOverrides::PositiveInt(kEnvNumThreads, HardwareConcurrency());
}

BenchConfig ParseBenchArgs(int argc, char** argv,
                           std::vector<std::string> default_datasets,
                           int64_t default_rows) {
  BenchConfig config;
  config.datasets = std::move(default_datasets);
  config.rows = default_rows;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--full") {
      config.full = true;
      config.rows = -1;  // native sizes
      config.zoo.grimp_epochs = 300;
      config.zoo.aimnet_epochs = 150;
      config.zoo.datawig_epochs = 100;
      config.zoo.forest_trees = 30;
    } else if (arg == "--csv") {
      config.csv = true;
    } else if (arg.rfind("--rows=", 0) == 0) {
      config.rows = std::stoll(value_of("--rows="));
    } else if (arg.rfind("--epochs=", 0) == 0) {
      config.zoo.grimp_epochs = std::stoi(value_of("--epochs="));
      config.zoo.aimnet_epochs = config.zoo.grimp_epochs;
      config.zoo.datawig_epochs = config.zoo.grimp_epochs;
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::stoull(value_of("--seed="));
      config.zoo.seed = config.seed;
    } else if (arg.rfind("--datasets=", 0) == 0) {
      config.datasets = Split(value_of("--datasets="), ',');
    } else if (arg.rfind("--rates=", 0) == 0) {
      config.error_rates.clear();
      for (const std::string& r : Split(value_of("--rates="), ',')) {
        config.error_rates.push_back(std::stod(r));
      }
    } else if (arg.rfind("--task-kind=", 0) == 0) {
      auto kind = ParseTaskKind(value_of("--task-kind="));
      if (!kind.ok()) {
        std::cerr << kind.status().ToString() << "\n";
        std::exit(2);
      }
      config.zoo.grimp_task_kind = *kind;
    } else if (arg.rfind("--k-strategy=", 0) == 0) {
      auto strategy = ParseKStrategy(value_of("--k-strategy="));
      if (!strategy.ok()) {
        std::cerr << strategy.status().ToString() << "\n";
        std::exit(2);
      }
      config.zoo.grimp_k_strategy = *strategy;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --full --csv --rows=N --epochs=N --seed=N "
                   "--datasets=a,b,c --rates=0.05,0.2,0.5 "
                   "--task-kind=linear|attention --k-strategy=diagonal|"
                   "target_column|weak_diagonal|weak_diagonal_fd\n";
      std::exit(0);
    } else {
      GRIMP_LOG(Warning) << "ignoring unknown flag " << arg;
    }
  }
  config.zoo.seed = config.seed;
  return config;
}

void PrintRunHeader(const std::string& title, const BenchConfig& config) {
  std::cout << "==========================================================\n"
            << title << "\n"
            << "==========================================================\n"
            << "datasets: ";
  for (size_t i = 0; i < config.datasets.size(); ++i) {
    std::cout << (i ? "," : "") << config.datasets[i];
  }
  std::cout << "\nrows: "
            << (config.rows > 0 ? std::to_string(config.rows)
                                : std::string("native (paper sizes)"))
            << "  rates: ";
  for (size_t i = 0; i < config.error_rates.size(); ++i) {
    std::cout << (i ? "," : "") << config.error_rates[i];
  }
  std::cout << "  grimp_epochs: " << config.zoo.grimp_epochs
            << "  seed: " << config.seed << "\n"
            << "note: datasets are synthetic replicas matching the paper's "
               "Table-1 shapes; see DESIGN.md Substitutions.\n\n";
}

std::vector<GridResult> RunComparisonGrid(const BenchConfig& config,
                                          const AlgoFactory& make_algos) {
  std::vector<GridResult> results;
  for (const std::string& name : config.datasets) {
    auto clean_or = GenerateDatasetByName(name, config.seed, config.rows);
    if (!clean_or.ok()) {
      GRIMP_LOG(Error) << "dataset " << name << ": "
                       << clean_or.status().ToString();
      continue;
    }
    const Table& clean = *clean_or;
    for (double rate : config.error_rates) {
      const CorruptedTable corrupted =
          InjectMcar(clean, rate, config.seed + 1);
      auto algos = make_algos();
      for (auto& algo : algos) {
        const RunResult rr = RunAlgorithm(clean, corrupted, algo.get());
        GridResult cell;
        cell.dataset = name;
        cell.error_rate = rate;
        cell.algorithm = rr.algorithm;
        cell.seconds = rr.seconds;
        cell.ok = rr.status.ok();
        if (rr.status.ok()) {
          cell.accuracy = rr.score.Accuracy();
          cell.rmse = rr.score.Rmse();
          cell.nrmse = rr.score.NormalizedRmse();
        } else {
          GRIMP_LOG(Error) << name << "/" << rr.algorithm << ": "
                           << rr.status.ToString();
        }
        std::cerr << "[grid] " << name << " rate=" << rate << " "
                  << cell.algorithm << " acc=" << cell.accuracy
                  << " t=" << cell.seconds << "s\n";
        results.push_back(cell);
      }
    }
  }
  return results;
}

int RunErrorDistributionExperiment(const BenchConfig& config,
                                   const std::string& dataset,
                                   int max_attributes, int max_domain) {
  auto clean_or = GenerateDatasetByName(dataset, config.seed, config.rows);
  if (!clean_or.ok()) {
    std::cerr << clean_or.status().ToString() << "\n";
    return 1;
  }
  const Table& clean = *clean_or;
  const double rate = config.error_rates.front();
  const CorruptedTable corrupted = InjectMcar(clean, rate, config.seed + 1);

  // Algorithm lineup for the error study.
  std::vector<std::unique_ptr<ImputationAlgorithm>> algos;
  algos.push_back(MakeGrimp(FeatureInitKind::kNgram, config.zoo));
  {
    MissForestOptions mo;
    mo.forest.num_trees = config.zoo.forest_trees;
    mo.seed = config.zoo.seed;
    algos.push_back(std::make_unique<MissForestImputer>(mo));
  }
  {
    AimNetOptions ao;
    ao.epochs = config.zoo.aimnet_epochs;
    ao.seed = config.zoo.seed;
    algos.push_back(std::make_unique<AimNetImputer>(ao));
  }
  algos.push_back(std::make_unique<KnnImputer>(5));

  std::vector<std::string> names;
  std::vector<Table> imputed;
  for (auto& algo : algos) {
    Table out;
    const RunResult rr = RunAlgorithm(clean, corrupted, algo.get(), &out);
    if (!rr.status.ok()) {
      std::cerr << algo->name() << ": " << rr.status.ToString() << "\n";
      continue;
    }
    std::cerr << "[errdist] " << rr.algorithm << " acc="
              << rr.score.Accuracy() << "\n";
    names.push_back(rr.algorithm);
    imputed.push_back(std::move(out));
  }

  int printed = 0;
  for (int c = 0; c < clean.num_cols() && printed < max_attributes; ++c) {
    const Column& col = clean.column(c);
    if (!col.is_categorical()) continue;
    int live = 0;
    for (int64_t cnt : col.dict().counts()) live += cnt > 0;
    if (live < 2 || live > max_domain) continue;
    ++printed;

    std::cout << "\n--- attribute '" << col.name() << "' (" << live
              << " values, missing rate " << rate << ") ---\n";
    std::vector<std::string> header{"value", "freq", "expected"};
    header.insert(header.end(), names.begin(), names.end());
    TextTable table(header);
    // Rows from the first algorithm's analysis define order/frequency;
    // per-algorithm error fractions are recomputed per imputed table.
    const auto base_rows =
        AnalyzeValueErrors(clean, corrupted, imputed[0], c);
    for (const ValueErrorRow& base : base_rows) {
      std::vector<std::string> row{base.value,
                                   std::to_string(base.frequency),
                                   TextTable::Num(base.expected_error, 2)};
      for (size_t a = 0; a < imputed.size(); ++a) {
        const auto rows = AnalyzeValueErrors(clean, corrupted, imputed[a], c);
        for (const ValueErrorRow& r : rows) {
          if (r.value == base.value) {
            row.push_back(r.test_cells > 0
                              ? TextTable::Num(r.ErrorFraction(), 2)
                              : std::string("n/a"));
            break;
          }
        }
      }
      table.AddRow(std::move(row));
    }
    if (config.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
  }
  std::cout << "\nExpected shape (paper §5, Figs. 11-12): frequent values "
               "(left rows) are imputed well by every method; rare values "
               "(bottom rows) fail for all of them, tracking the expected "
               "error 1 - f_v.\n";
  return 0;
}

double AverageAccuracy(const std::vector<GridResult>& results,
                       const std::string& algorithm, double rate) {
  double sum = 0.0;
  int count = 0;
  for (const GridResult& cell : results) {
    if (cell.algorithm == algorithm && cell.error_rate == rate && cell.ok) {
      sum += cell.accuracy;
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

}  // namespace bench
}  // namespace grimp
