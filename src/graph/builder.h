#ifndef GRIMP_GRAPH_BUILDER_H_
#define GRIMP_GRAPH_BUILDER_H_

#include <vector>

#include "common/result.h"
#include "graph/hetero_graph.h"
#include "table/corruption.h"
#include "table/table.h"

namespace grimp {

// The graph for a table plus the table<->node mappings GRIMP needs.
struct TableGraph {
  HeteroGraph graph;
  // row index -> RID node id.
  std::vector<int64_t> rid_nodes;
  // col -> dictionary code -> cell node id (-1 if the value has no live
  // occurrence and therefore no node).
  std::vector<std::vector<int64_t>> cell_nodes;

  int64_t CellNode(int col, int32_t code) const {
    if (code < 0) return -1;
    const auto& per_col = cell_nodes[static_cast<size_t>(col)];
    if (code >= static_cast<int32_t>(per_col.size())) return -1;
    return per_col[static_cast<size_t>(code)];
  }
};

// One append epoch's node-layout watermark for segmented builds (the
// streaming ingestion path). A segment covers rows [prev.row_end, row_end)
// and, per column c, dictionary codes [prev.code_end[c], code_end[c]).
// Node ids are assigned segment by segment: the segment's RID nodes in row
// order, then each column's new codes ascending — *including* codes whose
// occurrence count has dropped to zero (they become isolated nodes, so a
// later revival of the value needs no new node and no relabeling). This
// makes the node-id layout a pure function of the segment list, which is
// what lets an incrementally maintained graph be compared bit-for-bit
// against Build(live_table, segments).
//
// The last segment must cover the whole table: row_end == num_rows and
// code_end[c] == column c's dictionary size.
struct GraphSegment {
  int64_t row_end = 0;
  std::vector<int32_t> code_end;  // one watermark per column
};

// Graph construction knobs. `max_neighbors_per_node` > 0 implements the
// paper's §7 graph-pruning direction (GraphSAGE-style neighborhood
// sampling): any node whose per-type neighbor list exceeds the cap keeps a
// random subsample, bounding message-passing cost on hub values (e.g. a
// dominant categorical value adjacent to thousands of rows).
struct GraphBuildOptions {
  int max_neighbors_per_node = 0;  // 0 == unlimited
  uint64_t seed = 0;
};

// Builds GRIMP's heterogeneous graph from a (dirty) table (paper §3.2):
// one RID node per tuple, one cell node per (attribute, distinct value),
// one undirected typed edge per present cell, edge type == attribute.
// Missing cells contribute no edges. Cells listed in `excluded_cells`
// (e.g. validation targets, §3.6) contribute no edges either, though their
// value node still exists if other rows share the value.
//
// Build reports malformed input as typed errors instead of aborting:
// InvalidArgument for an empty table (no rows or no columns) or a negative
// neighbor cap, OutOfRange for an excluded cell outside the table.
class GraphBuilder {
 public:
  // Reusable storage for repeated builds (the serving hot path rebuilds a
  // small graph per request): CSR arrays, the per-type array slots and the
  // adjacency vector are recycled across BuildInto calls instead of
  // reallocated.
  struct Scratch {
    CsrAdjacency::Scratch csr;
    // Edge type t's arrays while it is built: [2t] offsets, [2t + 1]
    // indices.
    std::vector<std::vector<int32_t>> parts;
    std::vector<CsrAdjacency> adjacency;
  };

  explicit GraphBuilder(GraphBuildOptions options = {})
      : options_(options) {}

  Result<TableGraph> Build(
      const Table& table,
      const std::vector<CellRef>& excluded_cells = {}) const;

  // Segmented build: node ids follow the append-epoch layout described at
  // GraphSegment instead of the batch layout (all RIDs, then live codes).
  // An empty segment list is exactly the batch layout. Segments compose
  // with excluded_cells but not with max_neighbors_per_node > 0 (the cap's
  // RNG subsample is order-sensitive; InvalidArgument).
  Result<TableGraph> Build(const Table& table,
                           const std::vector<GraphSegment>& segments,
                           const std::vector<CellRef>& excluded_cells) const;

  // In-place variant: rebuilds `*out` (which may hold a previous build,
  // whose storage is recycled) for `table`. With a non-null `scratch` the
  // steady state allocates nothing once buffers have grown to the largest
  // request seen. Results are bit-identical to Build; on error `*out` is
  // left empty, never partially built.
  Status BuildInto(const Table& table,
                   const std::vector<CellRef>& excluded_cells,
                   TableGraph* out, Scratch* scratch) const;

  // Segmented in-place variant (see the segmented Build overload).
  Status BuildInto(const Table& table,
                   const std::vector<GraphSegment>& segments,
                   const std::vector<CellRef>& excluded_cells,
                   TableGraph* out, Scratch* scratch) const;

  const GraphBuildOptions& options() const { return options_; }

 private:
  GraphBuildOptions options_;
};

// Convenience wrapper over GraphBuilder for callers that construct from
// known-good tables (tests, benches): CHECK-fails on the errors Build
// reports.
TableGraph BuildTableGraph(const Table& table,
                           const std::vector<CellRef>& excluded_cells = {},
                           const GraphBuildOptions& options = {});

}  // namespace grimp

#endif  // GRIMP_GRAPH_BUILDER_H_
