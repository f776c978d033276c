#ifndef GRIMP_GRAPH_SAMPLER_H_
#define GRIMP_GRAPH_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/hetero_graph.h"
#include "graph/store.h"

namespace grimp {

// One GNN layer's sampled message-passing structure (a "block", after the
// DGL/GraphSAGE minibatch formulation): a compact bipartite subgraph from
// `num_src` source rows to `num_dst` destination rows, with one CSR per
// edge type. All ids are *local* row indices into the block; the
// destination rows are, by construction, the first `num_dst` source rows
// (so a layer can read its self term as a prefix gather of its input).
struct GraphBlock {
  int64_t num_src = 0;
  int64_t num_dst = 0;
  // Per edge type: num_dst segments whose indices lie in [0, num_src).
  // Segment v holds the sampled neighbors of destination row v; a
  // destination isolated under a type gets an empty segment, exactly like
  // a zero-degree node in the full graph.
  std::vector<CsrAdjacency> adjacency;
};

// The result of sampling one minibatch's receptive field: `blocks` in
// input -> output order (blocks[l] feeds GNN layer l), the global node ids
// whose features seed blocks.front() (`input_nodes`, one per source row),
// and the global ids the final block's destination rows stand for
// (`output_nodes` == the seeds, in the order they were given).
struct SampledSubgraph {
  std::vector<GraphBlock> blocks;
  std::vector<int32_t> input_nodes;
  std::vector<int32_t> output_nodes;

  int num_layers() const { return static_cast<int>(blocks.size()); }
};

// Layer-wise neighbor sampler over a GraphStore (paper §7's graph-pruning
// direction, realized per training step instead of statically — see
// GraphConfig::neighbor_cap for the static variant). For each layer l
// (outermost first) every destination node keeps min(fanouts[l], degree)
// neighbors per edge type, drawn without replacement from the *full*
// neighbor list, so hub cell nodes no longer drag their whole row set into
// every step.
//
// Each layer is resolved in two passes: the frontier is grouped by shard
// and the store visits each shard exactly once (GraphStore::ForEachShard,
// on parallel pool lanes for a sharded store) while its members' neighbor
// draws fill per-node slots of a flat scratch buffer; the blocks are then
// assembled in canonical (type, destination, draw) order. Every
// destination draws from its own RNG stream keyed on (Sample-call nonce,
// layer, edge type, global node id), never on traversal order or lane —
// so the blocks are a pure function of the graph, the seeds and the
// caller's Rng state, bit-identical across thread counts, shard counts,
// and store implementations.
//
// The sampler keeps internal scratch (a dense node->local-id remap and a
// pool of recycled index vectors) so that steady-state Sample calls into a
// reused SampledSubgraph perform no heap allocations. Consequence: one
// sampler instance must not run concurrent Sample calls (the trainer gives
// each batch-preparation lane its own sampler).
class NeighborSampler {
 public:
  // `store` must outlive the sampler. fanouts[l] > 0 applies to GNN layer
  // l; fanouts.size() is the number of blocks Sample produces.
  NeighborSampler(const GraphStore* store, std::vector<int> fanouts);

  // Seeds must be distinct, valid node ids (callers dedup while building
  // the batch). Each call advances *rng deterministically.
  SampledSubgraph Sample(const std::vector<int32_t>& seeds, Rng* rng) const;

  // Recycling overload: scavenges *out's existing storage (blocks,
  // adjacency arrays, node lists) before refilling it, so a caller that
  // reuses one SampledSubgraph across batches allocates nothing once
  // capacities have grown to the largest batch seen.
  void Sample(const std::vector<int32_t>& seeds, Rng* rng,
              SampledSubgraph* out) const;

  const std::vector<int>& fanouts() const { return fanouts_; }
  const GraphStore& store() const { return *store_; }

 private:
  std::vector<int32_t> TakeVec() const;
  void Recycle(std::vector<int32_t> v) const;
  // Draws up to fanouts_[layer] neighbors of `node` per edge type out of
  // `shard` into the per-layer flat scratch (`dst_index` = the node's
  // position in the current frontier).
  void SampleNode(const GraphShard& shard, int layer, int64_t frontier_size,
                  int64_t dst_index, int32_t node, uint64_t nonce) const;

  const GraphStore* store_;
  std::vector<int> fanouts_;
  // Sample scratch (see class comment). local_id_[g] is g's local row id in
  // the layer currently being built, -1 outside Sample and between layers.
  mutable std::vector<int32_t> local_id_;
  // Pass-1 output: draw_scratch_[(t * frontier + i) * fanout + k] is the
  // k-th drawn global neighbor of frontier node i under type t, with
  // draw_count_[t * frontier + i] valid entries.
  mutable std::vector<int32_t> draw_scratch_;
  mutable std::vector<int32_t> draw_count_;
  mutable std::vector<std::vector<int32_t>> pool_;
};

}  // namespace grimp

#endif  // GRIMP_GRAPH_SAMPLER_H_
