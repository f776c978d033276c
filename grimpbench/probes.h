// Per-layer probes for the traced run. Every workload reports the same
// per-layer metrics, each measured from outside by timing calls into one
// module's public functions on that workload's own data (its table, its
// graph, its model), so a layer that is idle in a workload still has a
// defined cost there and the breakdowns of two workloads can be compared.
//
// Counter metrics are registry deltas: the shard counters over the
// workload's measured phase (set by the workload), the serving and
// streaming counters over the probes' own serving and streaming runs.

#ifndef GRIMPBENCH_PROBES_H_
#define GRIMPBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/store.h"
#include "harness.h"
#include "table/table.h"

namespace grimpbench {

struct ProbeContext {
  const grimp::Table* dirty = nullptr;  // the workload's (dirty) table
  const grimp::Table* clean = nullptr;  // its ground truth, same rows
  uint64_t seed = 1;
  int dim = 32;
  int batch_size = 256;
  std::vector<int> fanouts{10, 10};
  // Resident budget of the probe's sharded store; 0 = 1/8 of the graph's
  // adjacency (the train_sharded rule).
  int64_t shard_budget_bytes = 0;
  std::string work_dir;

  // From the workload's measured phase, for the share metrics: median op
  // seconds and, per op, shard fetches and sampler steps.
  double op_seconds = 0.0;
  double fetches_per_op = 0.0;
  double steps_per_op = 0.0;
};

// Runs every probe and sets the probe metrics on `out`.
void RunLayerProbes(const ProbeContext& ctx, Outcome* out);

// Store invariance of the neighbor sampler: samples `batches` batches of
// `batch_size` distinct row nodes of `tg` at `fanouts` over two stores of
// tg's graph with identical RNG streams, and fails `out` unless every
// block is bit-identical. Returns each batch's Sample seconds per store.
struct SamplerTimes {
  std::vector<double> sharded_s;
  std::vector<double> in_memory_s;
};
SamplerTimes CheckSamplerInvariance(const grimp::GraphStore& sharded,
                                    const grimp::GraphStore& in_memory,
                                    const grimp::TableGraph& tg,
                                    const std::vector<int>& fanouts,
                                    int batch_size, int batches,
                                    uint64_t seed, Outcome* out);

// Shard-store counters of the workload's measured phase, read as registry
// deltas: fetches per sampled step, hits / (hits + fetches), evictions.
// They read 0 where the workload does not use a sharded store.
std::vector<std::string> ShardCounterNames();
void SetShardCounters(const CounterDelta& d, double steps, Outcome* out);

}  // namespace grimpbench

#endif  // GRIMPBENCH_PROBES_H_
