// Paper-shape gate: the orderings EXPERIMENTS.md reports from the paper's
// Fig. 8, Fig. 10, Table 2 and Table 3, checked in process on a reduced
// grid (300-row replicas, 5% and 50% MCAR, the benches' seed 42 and
// corruption seed 43). The bit-identity pins hold today's outputs bit for
// bit; this gate tells a change that must move rounding (a new reduction
// order, different restored weights) from one that breaks the model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fd_repair.h"
#include "baselines/missforest.h"
#include "baselines/zoo.h"
#include "data/datasets.h"
#include "eval/runner.h"
#include "table/corruption.h"

namespace grimp {
namespace {

constexpr uint64_t kSeed = 42;
constexpr int64_t kRows = 300;
constexpr double kRates[] = {0.05, 0.5};
// The first three datasets of the Fig. 8, Fig. 10 and Table 2 benches.
const char* const kDatasets[] = {"adult", "contraceptive", "flare"};
// Table 3's datasets, the two with declared FDs.
const char* const kFdDatasets[] = {"adult", "tax"};

// Categorical accuracy by (algorithm, rate), averaged over kDatasets.
using Averages = std::map<std::pair<std::string, double>, double>;

// Runs every algorithm of the Fig. 8 lineup plus GNN-MC (Fig. 10) and the
// linear-head GRIMP-FT (Table 2) on every (dataset, rate) cell, each
// algorithm on the same dirty table, as the benches do.
Averages RunGrid() {
  Averages sums;
  for (const char* name : kDatasets) {
    auto clean = GenerateDatasetByName(name, kSeed, kRows);
    EXPECT_TRUE(clean.ok()) << clean.status().ToString();
    if (!clean.ok()) continue;
    for (const double rate : kRates) {
      const CorruptedTable corrupted = InjectMcar(*clean, rate, kSeed + 1);
      const ZooOptions zoo;
      std::vector<std::unique_ptr<ImputationAlgorithm>> algos =
          MakeComparisonSuite(zoo);
      algos.push_back(
          MakeGrimpAblation(/*use_gnn=*/true, /*multi_task=*/false, zoo));
      ZooOptions linear = zoo;
      linear.grimp_task_kind = TaskKind::kLinear;
      algos.push_back(MakeGrimp(FeatureInitKind::kNgram, linear));
      for (auto& algo : algos) {
        const RunResult rr = RunAlgorithm(*clean, corrupted, algo.get());
        EXPECT_TRUE(rr.status.ok()) << rr.algorithm << ": "
                                    << rr.status.ToString();
        sums[{rr.algorithm, rate}] +=
            rr.score.Accuracy() / static_cast<double>(std::size(kDatasets));
      }
    }
  }
  return sums;
}

// The grid runs once per process and prints its averages; every test reads
// it.
const Averages& Grid() {
  static const Averages grid = [] {
    Averages averages = RunGrid();
    for (const auto& [key, accuracy] : averages) {
      std::printf("[grid] %-14s @ %.2f: %.4f\n", key.first.c_str(),
                  key.second, accuracy);
    }
    return averages;
  }();
  return grid;
}

double Accuracy(const std::string& algorithm, double rate) {
  const auto it = Grid().find({algorithm, rate});
  EXPECT_NE(it, Grid().end()) << algorithm << " @ " << rate;
  return it == Grid().end() ? 0.0 : it->second;
}

// Fig. 8: GRIMP is always in the top 3. Its better variant (n-gram or
// EmbDI features) is beaten by at most two of the other algorithms.
TEST(PaperShapesTest, GrimpIsInTheTopThree) {
  for (const double rate : kRates) {
    const double grimp =
        std::max(Accuracy("GRIMP-FT", rate), Accuracy("GRIMP-E", rate));
    int better = 0;
    std::string board;
    for (const char* other : {"HOLO", "TURL", "MISF", "DWIG", "EmbDI-MC"}) {
      const double accuracy = Accuracy(other, rate);
      if (accuracy > grimp) ++better;
      board += std::string(" ") + other + "=" + std::to_string(accuracy);
    }
    EXPECT_LE(better, 2) << "rate " << rate << ": GRIMP=" << grimp << board;
  }
}

// Fig. 10: multi-task learning carries its share. GRIMP-MT (the full
// system on EmbDI features, the bench's anchor) beats GNN-MC, the same GNN
// with one classifier over the whole table domain.
TEST(PaperShapesTest, MultiTaskBeatsOneClassifier) {
  for (const double rate : kRates) {
    EXPECT_GT(Accuracy("GRIMP-E", rate), Accuracy("GNN-MC", rate))
        << "rate " << rate;
  }
}

// Table 2: attention heads score at least as well as linear heads at 50%
// missing.
TEST(PaperShapesTest, AttentionAtLeastLinearAtHalfMissing) {
  EXPECT_GE(Accuracy("GRIMP-FT", 0.5), Accuracy("GRIMP-FT-Lin", 0.5));
}

// Table 3: FD-REPAIR fills only FD conclusions, so it scores lowest of
// FD-REPAIR, MissForest, FUNFOREST (MissForest with FD-focused trees) and
// GRIMP-A (attention with the FD-aware K) in every cell.
TEST(PaperShapesTest, FdRepairScoresLowest) {
  for (const char* name : kFdDatasets) {
    auto spec = GetDatasetSpec(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    auto clean = GenerateDataset(*spec, kSeed, kRows);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    auto fds = ResolveFds(*spec, clean->schema());
    ASSERT_TRUE(fds.ok()) << fds.status().ToString();
    ASSERT_FALSE(fds->empty()) << name;
    for (const double rate : kRates) {
      SCOPED_TRACE(std::string(name) + " @ " + std::to_string(rate));
      const CorruptedTable corrupted = InjectMcar(*clean, rate, kSeed + 1);
      const ZooOptions zoo;
      FdRepairImputer fd_repair(*fds);
      MissForestOptions misf_options;
      misf_options.forest.num_trees = zoo.forest_trees;
      misf_options.seed = kSeed;
      MissForestImputer misf(misf_options);
      MissForestOptions funf_options = misf_options;
      funf_options.fds = *fds;
      funf_options.fd_tree_budget = 0.5;
      MissForestImputer funf(funf_options);
      GrimpOptions grimp_options;
      grimp_options.k_strategy = KStrategy::kWeakDiagonalFd;
      grimp_options.fds = *fds;
      grimp_options.dim = zoo.grimp_dim;
      grimp_options.max_epochs = zoo.grimp_epochs;
      grimp_options.seed = kSeed;
      GrimpImputer grimp_a(grimp_options);

      const RunResult repair = RunAlgorithm(*clean, corrupted, &fd_repair);
      ASSERT_TRUE(repair.status.ok()) << repair.status.ToString();
      for (ImputationAlgorithm* other :
           std::initializer_list<ImputationAlgorithm*>{&misf, &funf,
                                                       &grimp_a}) {
        const RunResult rr = RunAlgorithm(*clean, corrupted, other);
        ASSERT_TRUE(rr.status.ok()) << rr.status.ToString();
        std::printf("[fd] %s @ %.2f: FD-REPAIR %.4f, %s %.4f\n", name, rate,
                    repair.score.Accuracy(), rr.algorithm.c_str(),
                    rr.score.Accuracy());
        EXPECT_LT(repair.score.Accuracy(), rr.score.Accuracy())
            << rr.algorithm;
      }
    }
  }
}

}  // namespace
}  // namespace grimp
