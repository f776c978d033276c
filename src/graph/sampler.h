#ifndef GRIMP_GRAPH_SAMPLER_H_
#define GRIMP_GRAPH_SAMPLER_H_

#include <cstdint>
#include <span>
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
// The sampler works on a group of batches at once (SampleGroup; Sample is
// a group of one), layer by layer. Each layer is resolved in two passes:
// the union of the members' frontiers is grouped by (shard, member) and
// the store visits each shard exactly once (GraphStore::ForEachShard, on
// parallel pool lanes for a sharded store), while every member's nodes in
// that shard draw into that member's per-node slots of one flat draw
// scratch — one ParallelFor over the members per visit, which runs on the
// pool for the single-shard in-memory store and inline inside a sharded
// visit lane. Pass 2 then assembles each member's block in canonical
// (type, destination, draw) order. Every destination draws from its own
// RNG stream keyed on (member nonce, layer, edge type, global node id),
// never on traversal order, lane or the other members — so each member's
// blocks are a pure function of the graph, its seeds and its Rng state,
// bit-identical across thread counts, shard counts, store implementations
// and group sizes (a node two members share draws once per member).
//
// The sampler keeps internal scratch (a dense node->local-id remap, the
// group's frontiers and the draw slots), and pass 2 refills each output
// block's adjacency arrays in place, so steady-state calls into reused
// SampledSubgraphs perform no heap allocations. Consequence: one sampler
// instance must not run concurrent Sample calls.
class NeighborSampler {
 public:
  // One batch of a sampled group: its seeds (distinct, valid node ids; the
  // caller dedups while building the batch), the Rng the call advances by
  // one draw, and the subgraph it refills.
  struct Member {
    const std::vector<int32_t>* seeds = nullptr;
    Rng* rng = nullptr;
    SampledSubgraph* out = nullptr;
  };

  // `store` must outlive the sampler. fanouts[l] > 0 applies to GNN layer
  // l; fanouts.size() is the number of blocks Sample produces.
  NeighborSampler(const GraphStore* store, std::vector<int> fanouts);

  // A group of one. Each call advances *rng deterministically.
  SampledSubgraph Sample(const std::vector<int32_t>& seeds, Rng* rng) const;

  // Recycling overload: refills *out's existing storage (blocks, adjacency
  // arrays, node lists), so a caller that reuses one SampledSubgraph across
  // batches allocates nothing once capacities have grown to the largest
  // batch seen.
  void Sample(const std::vector<int32_t>& seeds, Rng* rng,
              SampledSubgraph* out) const;

  // Samples every member with one shard visit per layer for the whole
  // group. Each member's subgraph equals its own Sample call bit for bit;
  // members may share seeds but not outputs.
  void SampleGroup(std::span<const Member> group) const;

  const std::vector<int>& fanouts() const { return fanouts_; }
  const GraphStore& store() const { return *store_; }

 private:
  // Draws up to fanouts_[layer] neighbors of `node` per edge type out of
  // `shard` into one member's slots: entry i of a frontier of `size`
  // nodes, under type t, fills draws[(t * size + i) * fanout ..] and
  // counts[t * size + i].
  void SampleNode(const GraphShard& shard, int layer, uint64_t nonce,
                  int32_t node, int64_t size, int64_t i, int32_t* draws,
                  int32_t* counts) const;

  const GraphStore* store_;
  std::vector<int> fanouts_;
  // Sample scratch (see class comment). local_id_[g] is g's local row id in
  // the member block being assembled, -1 outside pass 2.
  mutable std::vector<int32_t> local_id_;
  // The members' frontiers of the current layer, concatenated: member m's
  // is frontier_[start_[m], start_[m + 1]). next_ / next_start_ collect
  // the next (inner) layer's in pass 2.
  mutable std::vector<int32_t> frontier_;
  mutable std::vector<int32_t> next_;
  mutable std::vector<int64_t> start_;
  mutable std::vector<int64_t> next_start_;
  mutable std::vector<uint64_t> nonces_;  // one per member
  // Pass-1 grouping: bucket_[k, k + 1) brackets the entries of frontier_
  // keyed k = shard * members + member in order_; visit_ lists the shards
  // with members.
  mutable std::vector<int32_t> key_;
  mutable std::vector<int32_t> bucket_;
  mutable std::vector<int32_t> order_;
  mutable std::vector<int> visit_;
  // Pass-1 output, member m's slots starting at start_[m] * types *
  // fanout (draws) and start_[m] * types (counts); see SampleNode.
  mutable std::vector<int32_t> draw_scratch_;
  mutable std::vector<int32_t> draw_count_;
};

}  // namespace grimp

#endif  // GRIMP_GRAPH_SAMPLER_H_
