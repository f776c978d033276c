// The benchmark's workloads. Each runs in its own process, takes its
// inputs from --seed, measures for --seconds, checks its outputs, and
// fills an Outcome with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See README.md for why each exists.

#ifndef GRIMPBENCH_WORKLOADS_H_
#define GRIMPBENCH_WORKLOADS_H_

#include <vector>

#include "harness.h"

namespace grimpbench {

Outcome RunImputeAdult(const Args& args);
Outcome RunTrainSharded(const Args& args);

// Every workload reports the same end-to-end metrics: set-up seconds, the
// peak RSS of its measured phase, and epoch_s, the median steady-state
// training epoch, taken as the median of the medians of kOpSegments
// contiguous segments of the run's epochs. A run with fewer than kMinOps
// epochs fails. Tail percentiles are printed, not reported: on a shared
// host they move with the neighbours' load.
constexpr size_t kOpSegments = 5;
constexpr size_t kMinOps = 100;
void SetEndToEnd(double setup_s, double peak_rss_mb,
                 const std::vector<double>& epoch_ms, Outcome* out);

// Set-up steps that are cheap to repeat (data generation) run this many
// times; the median counts.
constexpr int kSetupReps = 5;

}  // namespace grimpbench

#endif  // GRIMPBENCH_WORKLOADS_H_
