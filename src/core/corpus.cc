#include "core/corpus.h"

#include <algorithm>

#include "common/trace.h"

namespace grimp {

namespace {

// Appends shuffled `samples` to the corpus: the first validation_fraction
// of them to validation, the rest to train.
void AppendSplit(const std::vector<TrainingSample>& samples,
                 double validation_fraction, TrainingCorpus* corpus) {
  const auto num_val = static_cast<ptrdiff_t>(
      validation_fraction * static_cast<double>(samples.size()));
  corpus->validation.insert(corpus->validation.end(), samples.begin(),
                            samples.begin() + num_val);
  corpus->train.insert(corpus->train.end(), samples.begin() + num_val,
                       samples.end());
}

}  // namespace

TrainingCorpus BuildTrainingCorpus(const Table& dirty,
                                   double validation_fraction,
                                   int64_t max_samples_per_col, Rng* rng) {
  GRIMP_CHECK(validation_fraction >= 0.0 && validation_fraction < 1.0);
  GRIMP_CHECK_GE(max_samples_per_col, 0);
  GRIMP_TRACE_SPAN("corpus_build");
  TrainingCorpus corpus;
  std::vector<TrainingSample> samples;
  if (max_samples_per_col == 0) {
    for (int64_t r = 0; r < dirty.num_rows(); ++r) {
      for (int c = 0; c < dirty.num_cols(); ++c) {
        if (!dirty.IsMissing(r, c)) samples.push_back(TrainingSample{r, c});
      }
    }
    rng->Shuffle(&samples);
    AppendSplit(samples, validation_fraction, &corpus);
    return corpus;
  }
  samples.reserve(
      static_cast<size_t>(std::min(max_samples_per_col, dirty.num_rows())));
  for (int c = 0; c < dirty.num_cols(); ++c) {
    // Algorithm R over the column's present cells: a uniform sample of up
    // to max_samples_per_col of them in one pass, no full enumeration.
    samples.clear();
    int64_t seen = 0;
    for (int64_t r = 0; r < dirty.num_rows(); ++r) {
      if (dirty.IsMissing(r, c)) continue;
      ++seen;
      if (static_cast<int64_t>(samples.size()) < max_samples_per_col) {
        samples.push_back(TrainingSample{r, c});
      } else {
        const uint64_t j = rng->Uniform(static_cast<uint64_t>(seen));
        if (j < static_cast<uint64_t>(max_samples_per_col)) {
          samples[static_cast<size_t>(j)] = TrainingSample{r, c};
        }
      }
    }
    rng->Shuffle(&samples);
    AppendSplit(samples, validation_fraction, &corpus);
  }
  return corpus;
}

}  // namespace grimp
