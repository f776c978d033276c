#ifndef GRIMP_GRAPH_HETERO_GRAPH_H_
#define GRIMP_GRAPH_HETERO_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace grimp {

// Node kinds in GRIMP's heterogeneous quasi-bipartite graph (paper §3.2,
// Fig. 3): one RID node per tuple, one cell node per (attribute, distinct
// value) pair. Values occurring in several attributes are disambiguated by
// construction because a cell node is keyed by its attribute.
enum class NodeKind : uint8_t { kRid = 0, kCell = 1 };

struct NodeInfo {
  NodeKind kind = NodeKind::kRid;
  // RID nodes: tuple index. Cell nodes: dictionary code within `attr`.
  int64_t payload = 0;
  // Cell nodes: owning attribute; -1 for RID nodes.
  int32_t attr = -1;
};

// CSR adjacency for one edge type (one relation direction).
class CsrAdjacency {
 public:
  // Recycled storage pool for repeated CSR construction (the serving hot
  // path rebuilds per-request graphs at high rate): `spare` holds
  // released offset/index arrays, `cursor` the counting-sort scratch.
  struct Scratch {
    std::vector<std::vector<int32_t>> spare;
    std::vector<int32_t> cursor;

    // Pops a spare array (empty vector when none) — capacity carries over.
    std::vector<int32_t> Take() {
      if (spare.empty()) return {};
      std::vector<int32_t> v = std::move(spare.back());
      spare.pop_back();
      return v;
    }
    void Recycle(std::vector<int32_t> v) { spare.push_back(std::move(v)); }
  };

  // Builds from an edge list over `num_nodes` source nodes. `scratch`
  // (optional) supplies recycled storage; the result is bit-identical with
  // or without it.
  static CsrAdjacency FromEdges(
      int64_t num_nodes, const std::vector<std::pair<int32_t, int32_t>>& edges,
      Scratch* scratch = nullptr);

  // Adopts prebuilt CSR arrays verbatim (offsets.size() == num_nodes + 1,
  // offsets.back() == indices.size()). Used to stitch block-diagonal union
  // graphs out of per-request adjacencies without re-deriving (and thereby
  // possibly re-ordering) any neighbor list.
  static CsrAdjacency FromParts(std::vector<int32_t> offsets,
                                std::vector<int32_t> indices);

  int64_t num_nodes() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }
  int64_t num_edges() const { return static_cast<int64_t>(indices_.size()); }

  // Neighbors of `node` as an index range [begin, end) into indices().
  std::pair<int32_t, int32_t> NeighborRange(int64_t node) const {
    GRIMP_DCHECK(node >= 0 && node < num_nodes());
    return {offsets_[static_cast<size_t>(node)],
            offsets_[static_cast<size_t>(node) + 1]};
  }
  int32_t Degree(int64_t node) const {
    auto [b, e] = NeighborRange(node);
    return e - b;
  }

  const std::vector<int32_t>& offsets() const { return offsets_; }
  const std::vector<int32_t>& indices() const { return indices_; }

  // Moves the owned arrays out for storage recycling (the neighbor
  // sampler's steady state re-fills them each batch); leaves the adjacency
  // empty.
  void ReleaseParts(std::vector<int32_t>* offsets,
                    std::vector<int32_t>* indices) {
    *offsets = std::move(offsets_);
    *indices = std::move(indices_);
    offsets_.clear();
    indices_.clear();
  }

 private:
  std::vector<int32_t> offsets_;  // size num_nodes + 1
  std::vector<int32_t> indices_;
};

// The heterogeneous graph: a shared node table plus one bidirectional CSR
// adjacency per edge type. Edge type t == attribute t: RID <-> cell edges
// for attribute t's values. Self-loops are represented implicitly by the
// GNN (the aggregator always concatenates the node's own representation,
// following GraphSAGE).
class HeteroGraph {
 public:
  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  int num_edge_types() const { return static_cast<int>(adjacency_.size()); }

  const NodeInfo& node(int64_t id) const {
    GRIMP_DCHECK(id >= 0 && id < num_nodes());
    return nodes_[static_cast<size_t>(id)];
  }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }

  // Adjacency for edge type `t` (undirected: both directions present).
  const CsrAdjacency& adjacency(int t) const {
    GRIMP_CHECK(t >= 0 && t < num_edge_types());
    return adjacency_[static_cast<size_t>(t)];
  }
  // Every edge type's adjacency, indexed by type.
  std::span<const CsrAdjacency> adjacencies() const { return adjacency_; }

  int64_t TotalEdges() const {
    int64_t total = 0;
    for (const auto& adj : adjacency_) total += adj.num_edges();
    return total;
  }

  // --- Construction (used by GraphBuilder) --------------------------------
  int64_t AddNode(NodeInfo info) {
    nodes_.push_back(info);
    return num_nodes() - 1;
  }
  void SetAdjacency(std::vector<CsrAdjacency> adjacency) {
    adjacency_ = std::move(adjacency);
  }

  // Rewinds to an empty graph for in-place rebuilding (per-request serving
  // graphs), keeping the node vector's capacity. CSR arrays are released
  // into `recycle` and the emptied adjacency vector moved into
  // `adjacency_recycle` (both optional) so the next build can adopt the
  // storage instead of reallocating.
  void Reset(CsrAdjacency::Scratch* recycle,
             std::vector<CsrAdjacency>* adjacency_recycle) {
    nodes_.clear();
    if (recycle != nullptr) {
      for (CsrAdjacency& adj : adjacency_) {
        std::vector<int32_t> offsets;
        std::vector<int32_t> indices;
        adj.ReleaseParts(&offsets, &indices);
        recycle->Recycle(std::move(offsets));
        recycle->Recycle(std::move(indices));
      }
    }
    adjacency_.clear();
    if (adjacency_recycle != nullptr) {
      *adjacency_recycle = std::move(adjacency_);
      adjacency_.clear();
    }
  }

 private:
  std::vector<NodeInfo> nodes_;
  std::vector<CsrAdjacency> adjacency_;
};

}  // namespace grimp

#endif  // GRIMP_GRAPH_HETERO_GRAPH_H_
