#include "graph/builder.h"

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace grimp {

namespace {
// GraphSAGE-style neighbor subsampling: keeps at most `cap` random
// neighbors per node (directed; the reverse direction is capped
// independently, which is all mean aggregation needs).
CsrAdjacency CapNeighbors(const CsrAdjacency& adj, int cap, Rng* rng) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  edges.reserve(static_cast<size_t>(adj.num_edges()));
  std::vector<int32_t> scratch;
  for (int64_t v = 0; v < adj.num_nodes(); ++v) {
    auto [b, e] = adj.NeighborRange(v);
    const int degree = e - b;
    if (degree <= cap) {
      for (int32_t k = b; k < e; ++k) {
        edges.emplace_back(static_cast<int32_t>(v),
                           adj.indices()[static_cast<size_t>(k)]);
      }
      continue;
    }
    scratch.assign(adj.indices().begin() + b, adj.indices().begin() + e);
    rng->Shuffle(&scratch);
    for (int k = 0; k < cap; ++k) {
      edges.emplace_back(static_cast<int32_t>(v),
                         scratch[static_cast<size_t>(k)]);
    }
  }
  return CsrAdjacency::FromEdges(adj.num_nodes(), edges);
}
}  // namespace

Result<TableGraph> GraphBuilder::Build(
    const Table& table, const std::vector<CellRef>& excluded_cells) const {
  TableGraph tg;
  GRIMP_RETURN_IF_ERROR(
      BuildInto(table, excluded_cells, &tg, /*scratch=*/nullptr));
  return tg;
}

Result<TableGraph> GraphBuilder::Build(
    const Table& table, const std::vector<GraphSegment>& segments,
    const std::vector<CellRef>& excluded_cells) const {
  TableGraph tg;
  GRIMP_RETURN_IF_ERROR(
      BuildInto(table, segments, excluded_cells, &tg, /*scratch=*/nullptr));
  return tg;
}

Status GraphBuilder::BuildInto(const Table& table,
                               const std::vector<CellRef>& excluded_cells,
                               TableGraph* out, Scratch* scratch) const {
  return BuildInto(table, /*segments=*/{}, excluded_cells, out, scratch);
}

Status GraphBuilder::BuildInto(const Table& table,
                               const std::vector<GraphSegment>& segments,
                               const std::vector<CellRef>& excluded_cells,
                               TableGraph* out, Scratch* scratch) const {
  GRIMP_TRACE_SPAN("graph_build");
  const int64_t n = table.num_rows();
  const int m = table.num_cols();
  if (n == 0) {
    return Status::InvalidArgument(
        "cannot build a graph over an empty table (0 rows)");
  }
  if (m == 0) {
    return Status::InvalidArgument(
        "cannot build a graph over a table with no columns");
  }
  if (options_.max_neighbors_per_node < 0) {
    return Status::InvalidArgument(
        "GraphBuildOptions.max_neighbors_per_node must be >= 0, got " +
        std::to_string(options_.max_neighbors_per_node));
  }
  for (const CellRef& cell : excluded_cells) {
    if (cell.row < 0 || cell.row >= n || cell.col < 0 || cell.col >= m) {
      return Status::OutOfRange(
          "excluded cell (" + std::to_string(cell.row) + ", " +
          std::to_string(cell.col) + ") outside a " + std::to_string(n) +
          "x" + std::to_string(m) + " table");
    }
  }
  if (!segments.empty()) {
    if (options_.max_neighbors_per_node > 0) {
      return Status::InvalidArgument(
          "segmented builds do not compose with max_neighbors_per_node: "
          "the cap's random subsample is not a pure function of the edge "
          "set, which segmented layouts exist to guarantee");
    }
    int64_t prev_row = 0;
    std::vector<int32_t> prev_code(static_cast<size_t>(m), 0);
    for (size_t i = 0; i < segments.size(); ++i) {
      const GraphSegment& seg = segments[i];
      if (seg.row_end < prev_row || seg.row_end > n) {
        return Status::InvalidArgument(
            "GraphSegment " + std::to_string(i) + " row_end " +
            std::to_string(seg.row_end) + " not monotone within " +
            std::to_string(n) + " rows");
      }
      if (static_cast<int>(seg.code_end.size()) != m) {
        return Status::InvalidArgument(
            "GraphSegment " + std::to_string(i) + " has " +
            std::to_string(seg.code_end.size()) + " code watermarks for " +
            std::to_string(m) + " columns");
      }
      for (int c = 0; c < m; ++c) {
        const int32_t code_end = seg.code_end[static_cast<size_t>(c)];
        if (code_end < prev_code[static_cast<size_t>(c)] ||
            code_end > table.column(c).dict().size()) {
          return Status::InvalidArgument(
              "GraphSegment " + std::to_string(i) + " code_end[" +
              std::to_string(c) + "] not monotone within the dictionary");
        }
      }
      prev_row = seg.row_end;
      prev_code = seg.code_end;
    }
    if (prev_row != n) {
      return Status::InvalidArgument(
          "segments cover rows up to " + std::to_string(prev_row) +
          " of " + std::to_string(n));
    }
    for (int c = 0; c < m; ++c) {
      if (prev_code[static_cast<size_t>(c)] != table.column(c).dict().size()) {
        return Status::InvalidArgument(
            "segments cover column " + std::to_string(c) +
            "'s dictionary up to code " +
            std::to_string(prev_code[static_cast<size_t>(c)]) + " of " +
            std::to_string(table.column(c).dict().size()));
      }
    }
  }

  // Recycle the previous build's storage (no-op on a fresh TableGraph).
  CsrAdjacency::Scratch* csr = scratch != nullptr ? &scratch->csr : nullptr;
  out->graph.Reset(csr, scratch != nullptr ? &scratch->adjacency : nullptr);

  // Excluded cells as a row-major mask; empty on the serving path, where
  // this never allocates.
  std::vector<uint8_t> excluded;
  if (!excluded_cells.empty()) {
    excluded.assign(static_cast<size_t>(n * m), 0);
    for (const CellRef& cell : excluded_cells) {
      excluded[static_cast<size_t>(cell.row * m + cell.col)] = 1;
    }
  }

  out->rid_nodes.resize(static_cast<size_t>(n));
  out->cell_nodes.resize(static_cast<size_t>(m));
  if (segments.empty()) {
    // Batch layout. RID nodes first: node id == row index.
    for (int64_t r = 0; r < n; ++r) {
      out->rid_nodes[static_cast<size_t>(r)] =
          out->graph.AddNode(NodeInfo{NodeKind::kRid, r, -1});
    }

    // Cell nodes: one per (attribute, live dictionary code). Keying by
    // attribute disambiguates values shared across attributes (§3.2).
    for (int c = 0; c < m; ++c) {
      const Dictionary& dict = table.column(c).dict();
      auto& per_col = out->cell_nodes[static_cast<size_t>(c)];
      per_col.assign(static_cast<size_t>(dict.size()), -1);
      for (int32_t code = 0; code < dict.size(); ++code) {
        if (dict.CountOf(code) <= 0) continue;
        per_col[static_cast<size_t>(code)] = out->graph.AddNode(
            NodeInfo{NodeKind::kCell, code, static_cast<int32_t>(c)});
      }
    }
  } else {
    // Append-epoch layout: per segment, its RID nodes then each column's
    // new codes ascending — dead codes included, so the id assignment
    // never depends on occurrence counts (see GraphSegment).
    for (int c = 0; c < m; ++c) {
      out->cell_nodes[static_cast<size_t>(c)].assign(
          static_cast<size_t>(table.column(c).dict().size()), -1);
    }
    int64_t row_begin = 0;
    std::vector<int32_t> code_begin(static_cast<size_t>(m), 0);
    for (const GraphSegment& seg : segments) {
      for (int64_t r = row_begin; r < seg.row_end; ++r) {
        out->rid_nodes[static_cast<size_t>(r)] =
            out->graph.AddNode(NodeInfo{NodeKind::kRid, r, -1});
      }
      for (int c = 0; c < m; ++c) {
        auto& per_col = out->cell_nodes[static_cast<size_t>(c)];
        for (int32_t code = code_begin[static_cast<size_t>(c)];
             code < seg.code_end[static_cast<size_t>(c)]; ++code) {
          per_col[static_cast<size_t>(code)] = out->graph.AddNode(
              NodeInfo{NodeKind::kCell, code, static_cast<int32_t>(c)});
        }
      }
      row_begin = seg.row_end;
      code_begin = seg.code_end;
    }
  }

  // One undirected typed edge per present, non-excluded cell, as one CSR
  // per edge type built straight from the column's codes: count each
  // node's edges, prefix the counts, fill. Rows ascend and RID ids ascend
  // with them, so a value's RID list comes out sorted, as FromEdges sorts
  // it. Types run on the pool, one per lane, when the table is large
  // enough (ShouldParallelize); a small table, such as one serving
  // request's, runs them inline. Their arrays are sized on this thread.
  std::vector<std::vector<int32_t>> local_parts;
  std::vector<std::vector<int32_t>>& parts =
      scratch != nullptr ? scratch->parts : local_parts;
  parts.resize(static_cast<size_t>(2 * m));
  const int64_t num_nodes = out->graph.num_nodes();
  const auto for_each_edge = [&](int c, auto&& visit) {
    const Column& col = table.column(c);
    for (int64_t r = 0; r < n; ++r) {
      const int32_t code = col.CodeAt(r);
      if (code < 0) continue;
      if (!excluded.empty() && excluded[static_cast<size_t>(r * m + c)]) {
        continue;
      }
      const int64_t cell_node = out->CellNode(c, code);
      GRIMP_CHECK_GE(cell_node, 0);
      visit(static_cast<size_t>(out->rid_nodes[static_cast<size_t>(r)]),
            static_cast<size_t>(cell_node));
    }
  };
  const int64_t type_grain = ShouldParallelize(n * m) ? 1 : m;
  for (int c = 0; c < m; ++c) {
    std::vector<int32_t>& offsets = parts[static_cast<size_t>(2 * c)];
    if (csr != nullptr) offsets = csr->Take();
    offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  }
  ParallelFor(0, m, type_grain, [&](int64_t lo, int64_t hi) {
    for (auto c = static_cast<int>(lo); c < hi; ++c) {
      std::vector<int32_t>& offsets = parts[static_cast<size_t>(2 * c)];
      for_each_edge(c, [&](size_t rid, size_t cell) {
        ++offsets[rid + 1];
        ++offsets[cell + 1];
      });
      for (size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
    }
  });
  for (int c = 0; c < m; ++c) {
    std::vector<int32_t>& indices = parts[static_cast<size_t>(2 * c + 1)];
    if (csr != nullptr) indices = csr->Take();
    indices.resize(
        static_cast<size_t>(parts[static_cast<size_t>(2 * c)].back()));
  }
  ParallelFor(0, m, type_grain, [&](int64_t lo, int64_t hi) {
    for (auto c = static_cast<int>(lo); c < hi; ++c) {
      std::vector<int32_t>& offsets = parts[static_cast<size_t>(2 * c)];
      std::vector<int32_t>& indices = parts[static_cast<size_t>(2 * c + 1)];
      // offsets[v] walks node v's slots, ending at node v + 1's start...
      for_each_edge(c, [&](size_t rid, size_t cell) {
        indices[static_cast<size_t>(offsets[rid]++)] =
            static_cast<int32_t>(cell);
        indices[static_cast<size_t>(offsets[cell]++)] =
            static_cast<int32_t>(rid);
      });
      // ... so shifting them up one restores every start.
      for (size_t v = offsets.size() - 1; v > 0; --v) {
        offsets[v] = offsets[v - 1];
      }
      offsets[0] = 0;
    }
  });
  std::vector<CsrAdjacency> local_adjacency;
  std::vector<CsrAdjacency>& adjacency =
      scratch != nullptr ? scratch->adjacency : local_adjacency;
  adjacency.clear();
  adjacency.reserve(static_cast<size_t>(m));
  for (int c = 0; c < m; ++c) {
    adjacency.push_back(CsrAdjacency::FromParts(
        std::move(parts[static_cast<size_t>(2 * c)]),
        std::move(parts[static_cast<size_t>(2 * c + 1)])));
  }
  if (options_.max_neighbors_per_node > 0) {
    Rng rng(options_.seed ^ 0x5eedc0ffeeULL);
    for (auto& adj : adjacency) {
      adj = CapNeighbors(adj, options_.max_neighbors_per_node, &rng);
    }
  }
  out->graph.SetAdjacency(std::move(adjacency));
  return Status::OK();
}

TableGraph BuildTableGraph(const Table& table,
                           const std::vector<CellRef>& excluded_cells,
                           const GraphBuildOptions& options) {
  Result<TableGraph> tg = GraphBuilder(options).Build(table, excluded_cells);
  GRIMP_CHECK(tg.ok()) << tg.status().ToString();
  return std::move(tg).ValueOrDie();
}

}  // namespace grimp
