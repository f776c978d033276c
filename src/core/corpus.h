#ifndef GRIMP_CORE_CORPUS_H_
#define GRIMP_CORE_CORPUS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "table/corruption.h"
#include "table/table.h"

namespace grimp {

// One self-supervised training sample (paper §3.3, Fig. 4): tuple `row`
// with the present cell in `target_col` masked out; the model must
// reconstruct it. Samples are generated only for present cells, so every
// tuple yields K samples where K is its number of non-missing attributes.
struct TrainingSample {
  int64_t row = 0;
  int target_col = 0;
};

// The training corpus: samples split into train/validation (paper §3.6
// holds out 20% for early stopping). Validation target cells are also
// returned so their edges can be removed from the graph before training.
struct TrainingCorpus {
  std::vector<TrainingSample> train;
  std::vector<TrainingSample> validation;

  std::vector<CellRef> ValidationCells() const {
    std::vector<CellRef> cells;
    cells.reserve(validation.size());
    for (const TrainingSample& s : validation) {
      cells.push_back(CellRef{s.row, s.target_col});
    }
    return cells;
  }

  int64_t TotalSamples() const {
    return static_cast<int64_t>(train.size() + validation.size());
  }
};

// The one rule for what a fit trains on; the store plays no part in it.
// With `max_samples_per_col` == 0: one sample per (tuple, present
// attribute), shuffled and split uniformly at random into train /
// validation. With a cap > 0 (paper §7 training-data reduction): at most
// that many samples per column — a uniform reservoir over the column's
// present cells, so corpus memory is O(num_cols * cap) at any table size —
// each column's sample split by `validation_fraction`. Deterministic for a
// given *rng state.
TrainingCorpus BuildTrainingCorpus(const Table& dirty,
                                   double validation_fraction,
                                   int64_t max_samples_per_col, Rng* rng);

}  // namespace grimp

#endif  // GRIMP_CORE_CORPUS_H_
