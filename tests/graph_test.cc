#include <gtest/gtest.h>

#include "graph/builder.h"

namespace grimp {
namespace {

Table MakeMovieTable() {
  // The paper's running example shape: values shared across columns must
  // be disambiguated.
  Schema schema({{"year", AttrType::kCategorical},
                 {"country", AttrType::kCategorical},
                 {"title", AttrType::kCategorical}});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({"2015", "france", "amelie"}).ok());
  EXPECT_TRUE(t.AppendRow({"2014", "france", "2015"}).ok());  // "2015" reused
  EXPECT_TRUE(t.AppendRow({"2015", "", "martian"}).ok());
  return t;
}

TEST(CsrAdjacencyTest, BuildsSortedNeighborLists) {
  CsrAdjacency adj = CsrAdjacency::FromEdges(4, {{0, 2}, {0, 1}, {2, 0}});
  EXPECT_EQ(adj.num_nodes(), 4);
  EXPECT_EQ(adj.num_edges(), 3);
  auto [b, e] = adj.NeighborRange(0);
  ASSERT_EQ(e - b, 2);
  EXPECT_EQ(adj.indices()[static_cast<size_t>(b)], 1);
  EXPECT_EQ(adj.indices()[static_cast<size_t>(b) + 1], 2);
  EXPECT_EQ(adj.Degree(3), 0);
}

TEST(CsrAdjacencyTest, FromPartsRoundTripsThroughReleaseParts) {
  CsrAdjacency built = CsrAdjacency::FromEdges(4, {{0, 2}, {0, 1}, {3, 1}});
  const std::vector<int32_t> want_offsets = built.offsets();
  const std::vector<int32_t> want_indices = built.indices();

  std::vector<int32_t> offsets, indices;
  built.ReleaseParts(&offsets, &indices);
  // The source is drained, the moved-out arrays are intact.
  EXPECT_EQ(built.offsets().size(), 0u);
  EXPECT_EQ(built.indices().size(), 0u);
  EXPECT_EQ(offsets, want_offsets);
  EXPECT_EQ(indices, want_indices);

  // FromParts adopts them verbatim — same neighbor lists, same order.
  const CsrAdjacency rebuilt =
      CsrAdjacency::FromParts(std::move(offsets), std::move(indices));
  EXPECT_EQ(rebuilt.num_nodes(), 4);
  EXPECT_EQ(rebuilt.num_edges(), 3);
  EXPECT_EQ(rebuilt.offsets(), want_offsets);
  EXPECT_EQ(rebuilt.indices(), want_indices);
  EXPECT_EQ(rebuilt.Degree(0), 2);
  EXPECT_EQ(rebuilt.Degree(3), 1);
}

TEST(GraphBuilderTest, ReportsTypedErrorsInsteadOfAborting) {
  const Table empty(Schema({{"a", AttrType::kCategorical}}));
  auto no_rows = GraphBuilder().Build(empty);
  ASSERT_FALSE(no_rows.ok());
  EXPECT_EQ(no_rows.status().code(), StatusCode::kInvalidArgument);

  Table t = MakeMovieTable();
  GraphBuildOptions bad;
  bad.max_neighbors_per_node = -1;
  auto bad_cap = GraphBuilder(bad).Build(t);
  ASSERT_FALSE(bad_cap.ok());
  EXPECT_EQ(bad_cap.status().code(), StatusCode::kInvalidArgument);

  auto bad_cell = GraphBuilder().Build(t, {CellRef{99, 0}});
  ASSERT_FALSE(bad_cell.ok());
  EXPECT_EQ(bad_cell.status().code(), StatusCode::kOutOfRange);

  auto ok = GraphBuilder().Build(t);
  EXPECT_TRUE(ok.ok());
}

TEST(GraphBuilderTest, NodeInventory) {
  Table t = MakeMovieTable();
  TableGraph tg = BuildTableGraph(t);
  // 3 RID nodes + distinct values per column: year {2015, 2014} = 2,
  // country {france} = 1, title {amelie, 2015, martian} = 3.
  EXPECT_EQ(tg.graph.num_nodes(), 3 + 2 + 1 + 3);
  EXPECT_EQ(tg.graph.num_edge_types(), 3);
  // RID nodes come first and carry their row index.
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(tg.graph.node(tg.rid_nodes[static_cast<size_t>(r)]).kind,
              NodeKind::kRid);
    EXPECT_EQ(tg.graph.node(tg.rid_nodes[static_cast<size_t>(r)]).payload, r);
  }
}

TEST(GraphBuilderTest, ValuesSharedAcrossColumnsGetSeparateNodes) {
  Table t = MakeMovieTable();
  TableGraph tg = BuildTableGraph(t);
  const int32_t year_code = t.column(0).dict().Find("2015");
  const int32_t title_code = t.column(2).dict().Find("2015");
  ASSERT_GE(year_code, 0);
  ASSERT_GE(title_code, 0);
  EXPECT_NE(tg.CellNode(0, year_code), tg.CellNode(2, title_code));
}

TEST(GraphBuilderTest, EdgeCountsMatchPresentCells) {
  Table t = MakeMovieTable();
  TableGraph tg = BuildTableGraph(t);
  // Column 0: 3 present cells -> 6 directed edges; column 1: 2 -> 4;
  // column 2: 3 -> 6.
  EXPECT_EQ(tg.graph.adjacency(0).num_edges(), 6);
  EXPECT_EQ(tg.graph.adjacency(1).num_edges(), 4);
  EXPECT_EQ(tg.graph.adjacency(2).num_edges(), 6);
  EXPECT_EQ(tg.graph.TotalEdges(), 16);
}

TEST(GraphBuilderTest, MissingCellsContributeNoEdges) {
  Table t = MakeMovieTable();
  TableGraph tg = BuildTableGraph(t);
  // Row 2's country is missing: its RID node has no type-1 edges.
  const int64_t rid = tg.rid_nodes[2];
  EXPECT_EQ(tg.graph.adjacency(1).Degree(rid), 0);
  EXPECT_EQ(tg.graph.adjacency(0).Degree(rid), 1);
}

TEST(GraphBuilderTest, ExcludedCellsRemoveEdgesButKeepNodes) {
  Table t = MakeMovieTable();
  // Exclude row 0's country cell (a validation target).
  TableGraph tg = BuildTableGraph(t, {CellRef{0, 1}});
  const int64_t rid0 = tg.rid_nodes[0];
  EXPECT_EQ(tg.graph.adjacency(1).Degree(rid0), 0);
  // The france node still exists (row 1 also has it) with one edge left.
  const int32_t france = t.column(1).dict().Find("france");
  const int64_t france_node = tg.CellNode(1, france);
  ASSERT_GE(france_node, 0);
  EXPECT_EQ(tg.graph.adjacency(1).Degree(france_node), 1);
}

TEST(GraphBuilderTest, EdgesAreBidirectional) {
  Table t = MakeMovieTable();
  TableGraph tg = BuildTableGraph(t);
  for (int type = 0; type < tg.graph.num_edge_types(); ++type) {
    const CsrAdjacency& adj = tg.graph.adjacency(type);
    for (int64_t u = 0; u < tg.graph.num_nodes(); ++u) {
      auto [b, e] = adj.NeighborRange(u);
      for (int32_t k = b; k < e; ++k) {
        const int32_t v = adj.indices()[static_cast<size_t>(k)];
        // u must appear in v's neighbor list.
        auto [vb, ve] = adj.NeighborRange(v);
        bool found = false;
        for (int32_t j = vb; j < ve; ++j) {
          found |= adj.indices()[static_cast<size_t>(j)] ==
                   static_cast<int32_t>(u);
        }
        EXPECT_TRUE(found) << "edge " << u << "->" << v << " not symmetric";
      }
    }
  }
}

TEST(GraphBuilderTest, CellNodePayloadsRoundTrip) {
  Table t = MakeMovieTable();
  TableGraph tg = BuildTableGraph(t);
  for (int c = 0; c < t.num_cols(); ++c) {
    const Dictionary& dict = t.column(c).dict();
    for (int32_t code = 0; code < dict.size(); ++code) {
      if (dict.CountOf(code) <= 0) continue;
      const int64_t node = tg.CellNode(c, code);
      ASSERT_GE(node, 0);
      EXPECT_EQ(tg.graph.node(node).kind, NodeKind::kCell);
      EXPECT_EQ(tg.graph.node(node).attr, c);
      EXPECT_EQ(tg.graph.node(node).payload, code);
    }
  }
  EXPECT_EQ(tg.CellNode(0, -1), -1);
  EXPECT_EQ(tg.CellNode(0, 9999), -1);
}

}  // namespace
}  // namespace grimp
