#include "graph/hetero_graph.h"

#include <algorithm>

namespace grimp {

CsrAdjacency CsrAdjacency::FromEdges(
    int64_t num_nodes, const std::vector<std::pair<int32_t, int32_t>>& edges,
    Scratch* scratch) {
  CsrAdjacency adj;
  if (scratch != nullptr) {
    adj.offsets_ = scratch->Take();
    adj.indices_ = scratch->Take();
  }
  adj.offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (const auto& [src, dst] : edges) {
    GRIMP_CHECK(src >= 0 && src < num_nodes);
    GRIMP_CHECK(dst >= 0 && dst < num_nodes);
    adj.offsets_[static_cast<size_t>(src) + 1]++;
  }
  for (size_t i = 1; i < adj.offsets_.size(); ++i) {
    adj.offsets_[i] += adj.offsets_[i - 1];
  }
  adj.indices_.resize(edges.size());
  std::vector<int32_t> local_cursor;
  std::vector<int32_t>& cursor =
      scratch != nullptr ? scratch->cursor : local_cursor;
  cursor.assign(adj.offsets_.begin(), adj.offsets_.end() - 1);
  for (const auto& [src, dst] : edges) {
    adj.indices_[static_cast<size_t>(cursor[static_cast<size_t>(src)]++)] =
        dst;
  }
  // Sorted neighbor lists make traversal deterministic and testable.
  for (int64_t n = 0; n < num_nodes; ++n) {
    auto [b, e] = adj.NeighborRange(n);
    std::sort(adj.indices_.begin() + b, adj.indices_.begin() + e);
  }
  return adj;
}

CsrAdjacency CsrAdjacency::FromParts(std::vector<int32_t> offsets,
                                     std::vector<int32_t> indices) {
  GRIMP_CHECK(!offsets.empty());
  GRIMP_CHECK_EQ(static_cast<size_t>(offsets.back()), indices.size());
  CsrAdjacency adj;
  adj.offsets_ = std::move(offsets);
  adj.indices_ = std::move(indices);
  return adj;
}

}  // namespace grimp
