#ifndef GRIMP_BENCH_BENCH_COMMON_H_
#define GRIMP_BENCH_BENCH_COMMON_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baselines/zoo.h"
#include "data/datasets.h"
#include "eval/runner.h"

namespace grimp {
namespace bench {

// Shared configuration for the experiment binaries. Defaults are scaled to
// finish on one CPU core in minutes; pass --full for the paper's native
// dataset sizes and training budgets (slow).
//
// Flags: --full --rows=N --epochs=N --seed=N --datasets=a,b,c
//        --rates=0.05,0.2,0.5 --csv --task-kind=linear|attention
//        --k-strategy=diagonal|target_column|weak_diagonal|weak_diagonal_fd
struct BenchConfig {
  std::vector<std::string> datasets;
  std::vector<double> error_rates{0.05, 0.2, 0.5};
  // Rows per generated dataset; -1 = the paper's native size.
  int64_t rows = 300;
  ZooOptions zoo;
  uint64_t seed = 42;
  bool full = false;
  bool csv = false;
};

// Parses argv into a BenchConfig starting from per-binary defaults.
BenchConfig ParseBenchArgs(int argc, char** argv,
                           std::vector<std::string> default_datasets,
                           int64_t default_rows = 300);

// std::thread::hardware_concurrency(), at least 1. Benchmarks record it as
// "hardware_concurrency" next to their results.
int HardwareConcurrency();

// Thread budget for this run: hardware concurrency, capped by
// GRIMP_NUM_THREADS when set (the same knob the runtime pool honors).
// Benchmarks record this next to their results so numbers from capped
// runs are never mistaken for full-machine numbers.
int ResolveMaxThreads();

// Prints the run header: binary purpose, config, substitution note.
void PrintRunHeader(const std::string& title, const BenchConfig& config);

// One cell of a comparison grid.
struct GridResult {
  std::string dataset;
  double error_rate = 0.0;
  std::string algorithm;
  double accuracy = 0.0;
  double rmse = 0.0;
  double nrmse = 0.0;
  double seconds = 0.0;
  bool ok = true;
};

// Runs `make_algos()` (fresh instances per cell, so state never leaks
// across runs) on every (dataset, error_rate) cell. The same corrupted
// table is fed to every algorithm of a cell (paper §4.2).
using AlgoFactory =
    std::function<std::vector<std::unique_ptr<ImputationAlgorithm>>()>;
std::vector<GridResult> RunComparisonGrid(const BenchConfig& config,
                                          const AlgoFactory& make_algos);

// Average a metric over datasets for (algorithm, rate) pairs.
double AverageAccuracy(const std::vector<GridResult>& results,
                       const std::string& algorithm, double rate);

// Shared implementation of the Figures 11/12 per-value error-distribution
// study (§5): runs GRIMP, MISF, HOLO and KNN on `dataset`, then prints,
// for up to `max_attributes` small-domain categorical attributes, the
// fraction of wrong imputations per domain value (sorted by frequency)
// next to the "expected" error 1 - f_v.
int RunErrorDistributionExperiment(const BenchConfig& config,
                                   const std::string& dataset,
                                   int max_attributes, int max_domain);

}  // namespace bench
}  // namespace grimp

#endif  // GRIMP_BENCH_BENCH_COMMON_H_
