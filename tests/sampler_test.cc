#include "graph/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/hetero_graph.h"
#include "graph/store.h"

namespace grimp {
namespace {

// A small 2-edge-type graph: node 0 is a hub under type 0 (neighbors
// 1..6), sparse under type 1 (neighbors 7, 8). All edges bidirectional,
// matching the builder's convention.
HeteroGraph HubGraph() {
  HeteroGraph g;
  for (int i = 0; i < 9; ++i) g.AddNode(NodeInfo{});
  std::vector<std::pair<int32_t, int32_t>> t0, t1;
  for (int32_t v = 1; v <= 6; ++v) {
    t0.emplace_back(0, v);
    t0.emplace_back(v, 0);
  }
  for (int32_t v = 7; v <= 8; ++v) {
    t1.emplace_back(0, v);
    t1.emplace_back(v, 0);
  }
  std::vector<CsrAdjacency> adj;
  adj.push_back(CsrAdjacency::FromEdges(9, t0));
  adj.push_back(CsrAdjacency::FromEdges(9, t1));
  g.SetAdjacency(std::move(adj));
  return g;
}

std::set<int32_t> GlobalNeighbors(const HeteroGraph& g, int type,
                                  int32_t node) {
  std::set<int32_t> out;
  const auto [b, e] = g.adjacency(type).NeighborRange(node);
  for (int32_t k = b; k < e; ++k) {
    out.insert(g.adjacency(type).indices()[static_cast<size_t>(k)]);
  }
  return out;
}

// Every sampler test runs over three stores of the same graph: the
// in-memory single shard, one spilled shard, and four spilled shards under
// a 1-byte budget (tighter than any shard, so every acquire evicts). Draws
// are keyed per (nonce, layer, type, node), never on the store, so each
// test's expectations must hold unchanged on all three.
class NeighborSamplerTest : public ::testing::Test {
 protected:
  struct NamedStore {
    std::string name;
    std::unique_ptr<GraphStore> store;
  };

  // `g` must outlive the returned stores (the in-memory one borrows it).
  static std::vector<NamedStore> Stores(const HeteroGraph& g) {
    std::vector<NamedStore> stores;
    stores.push_back({"in_memory", std::make_unique<InMemoryGraphStore>(&g)});
    for (const auto& [shards, budget] :
         {std::pair<int, int64_t>{1, 1ll << 40}, {4, 1}}) {
      ShardedGraphStore::Options options;
      options.num_shards = shards;
      options.max_resident_bytes = budget;
      auto store = ShardedGraphStore::Create(g, options);
      EXPECT_TRUE(store.ok()) << store.status().ToString();
      if (store.ok()) {
        stores.push_back({std::to_string(shards) + "_shards",
                          std::move(store).ValueOrDie()});
      }
    }
    return stores;
  }
};

TEST_F(NeighborSamplerTest, FanoutRespectedPerEdgeType) {
  const HeteroGraph g = HubGraph();
  for (const NamedStore& s : Stores(g)) {
    SCOPED_TRACE(s.name);
    NeighborSampler sampler(s.store.get(), {3});
    Rng rng(7);
    const SampledSubgraph sub = sampler.Sample({0}, &rng);
    ASSERT_EQ(sub.num_layers(), 1);
    const GraphBlock& block = sub.blocks[0];
    EXPECT_EQ(block.num_dst, 1);
    ASSERT_EQ(block.adjacency.size(), 2u);
    // Hub type capped at the fanout; sparse type keeps its full degree.
    EXPECT_EQ(block.adjacency[0].Degree(0), 3);
    EXPECT_EQ(block.adjacency[1].Degree(0), 2);

    // Every sampled neighbor is a true neighbor, with no duplicates.
    for (int t = 0; t < 2; ++t) {
      const std::set<int32_t> truth = GlobalNeighbors(g, t, 0);
      std::set<int32_t> sampled;
      const auto [b, e] = block.adjacency[t].NeighborRange(0);
      for (int32_t k = b; k < e; ++k) {
        const int32_t local =
            block.adjacency[t].indices()[static_cast<size_t>(k)];
        ASSERT_GE(local, 0);
        ASSERT_LT(local, block.num_src);
        const int32_t global = sub.input_nodes[static_cast<size_t>(local)];
        EXPECT_TRUE(truth.count(global)) << "type " << t << " node " << global;
        EXPECT_TRUE(sampled.insert(global).second) << "duplicate " << global;
      }
    }
  }
}

TEST_F(NeighborSamplerTest, LocalRemapIsBijective) {
  const HeteroGraph g = HubGraph();
  for (const NamedStore& s : Stores(g)) {
    SCOPED_TRACE(s.name);
    NeighborSampler sampler(s.store.get(), {2, 2});
    Rng rng(11);
    const SampledSubgraph sub = sampler.Sample({0, 5}, &rng);
    ASSERT_EQ(sub.num_layers(), 2);

    // input_nodes hold distinct globals: local <-> global is a bijection.
    std::unordered_set<int32_t> uniq(sub.input_nodes.begin(),
                                     sub.input_nodes.end());
    EXPECT_EQ(uniq.size(), sub.input_nodes.size());
    EXPECT_EQ(static_cast<int64_t>(sub.input_nodes.size()),
              sub.blocks[0].num_src);

    // Blocks chain: one block's sources are the previous block's inputs.
    EXPECT_EQ(sub.blocks[0].num_dst, sub.blocks[1].num_src);
    // The final block's destinations are the seeds, in order.
    EXPECT_EQ(sub.blocks[1].num_dst, 2);
    ASSERT_EQ(sub.output_nodes.size(), 2u);
    EXPECT_EQ(sub.output_nodes[0], 0);
    EXPECT_EQ(sub.output_nodes[1], 5);
    // Destinations are a prefix of the first block's sources.
    EXPECT_EQ(sub.input_nodes[0], 0);
    EXPECT_EQ(sub.input_nodes[1], 5);

    // All local indices stay in range for their block.
    for (const GraphBlock& block : sub.blocks) {
      for (const CsrAdjacency& adj : block.adjacency) {
        EXPECT_EQ(adj.num_nodes(), block.num_dst);
        for (int32_t local : adj.indices()) {
          EXPECT_GE(local, 0);
          EXPECT_LT(local, block.num_src);
        }
      }
    }
  }
}

TEST_F(NeighborSamplerTest, DeterministicUnderFixedSeed) {
  const HeteroGraph g = HubGraph();
  for (const NamedStore& s : Stores(g)) {
    SCOPED_TRACE(s.name);
    NeighborSampler sampler(s.store.get(), {2, 3});
    Rng rng_a(99), rng_b(99);
    const SampledSubgraph a = sampler.Sample({0, 3}, &rng_a);
    const SampledSubgraph b = sampler.Sample({0, 3}, &rng_b);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    EXPECT_EQ(a.input_nodes, b.input_nodes);
    EXPECT_EQ(a.output_nodes, b.output_nodes);
    for (size_t l = 0; l < a.blocks.size(); ++l) {
      EXPECT_EQ(a.blocks[l].num_src, b.blocks[l].num_src);
      EXPECT_EQ(a.blocks[l].num_dst, b.blocks[l].num_dst);
      ASSERT_EQ(a.blocks[l].adjacency.size(), b.blocks[l].adjacency.size());
      for (size_t t = 0; t < a.blocks[l].adjacency.size(); ++t) {
        EXPECT_EQ(a.blocks[l].adjacency[t].offsets(),
                  b.blocks[l].adjacency[t].offsets());
        EXPECT_EQ(a.blocks[l].adjacency[t].indices(),
                  b.blocks[l].adjacency[t].indices());
      }
    }
  }
}

TEST_F(NeighborSamplerTest, KeepsEverythingWhenFanoutExceedsDegree) {
  const HeteroGraph g = HubGraph();
  for (const NamedStore& s : Stores(g)) {
    SCOPED_TRACE(s.name);
    NeighborSampler sampler(s.store.get(), {100});
    Rng rng(1);
    const SampledSubgraph sub = sampler.Sample({0}, &rng);
    const GraphBlock& block = sub.blocks[0];
    EXPECT_EQ(block.adjacency[0].Degree(0), 6);
    EXPECT_EQ(block.adjacency[1].Degree(0), 2);
    // With nothing dropped the sampled neighbor sets equal the full ones.
    for (int t = 0; t < 2; ++t) {
      std::set<int32_t> sampled;
      const auto [b, e] = block.adjacency[t].NeighborRange(0);
      for (int32_t k = b; k < e; ++k) {
        const int32_t local =
            block.adjacency[t].indices()[static_cast<size_t>(k)];
        sampled.insert(sub.input_nodes[static_cast<size_t>(local)]);
      }
      EXPECT_EQ(sampled, GlobalNeighbors(g, t, 0));
    }
  }
}

TEST_F(NeighborSamplerTest, IsolatedSeedGetsEmptySegments) {
  HeteroGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode(NodeInfo{});
  std::vector<CsrAdjacency> adj;
  adj.push_back(CsrAdjacency::FromEdges(3, {{1, 2}, {2, 1}}));
  g.SetAdjacency(std::move(adj));
  for (const NamedStore& s : Stores(g)) {
    SCOPED_TRACE(s.name);
    NeighborSampler sampler(s.store.get(), {4});
    Rng rng(5);
    const SampledSubgraph sub = sampler.Sample({0}, &rng);
    EXPECT_EQ(sub.blocks[0].adjacency[0].Degree(0), 0);
    EXPECT_EQ(sub.blocks[0].num_src, 1);  // just the seed itself
  }
}

// The dense partial Fisher-Yates the sampler's sparse shuffle replaced:
// shuffle a full copy of the neighbor list, keep the first `fanout`.
std::vector<int32_t> DenseDraws(std::vector<int32_t> copy, int fanout,
                                uint64_t nonce, int layer, int type,
                                int32_t node) {
  const int degree = static_cast<int>(copy.size());
  if (degree <= fanout) return copy;
  Rng stream(MixSeed(nonce ^ static_cast<uint64_t>(layer),
                     static_cast<uint64_t>(type),
                     static_cast<uint64_t>(node)));
  std::vector<int32_t> out;
  for (int k = 0; k < fanout; ++k) {
    const size_t j = static_cast<size_t>(k) +
                     static_cast<size_t>(stream.Uniform(
                         static_cast<uint64_t>(degree - k)));
    std::swap(copy[static_cast<size_t>(k)], copy[j]);
    out.push_back(copy[static_cast<size_t>(k)]);
  }
  return out;
}

// A star: node 0 linked to nodes 1..degree under one edge type.
HeteroGraph StarGraph(int degree) {
  HeteroGraph g;
  for (int i = 0; i <= degree; ++i) g.AddNode(NodeInfo{});
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t v = 1; v <= degree; ++v) {
    edges.emplace_back(0, v);
    edges.emplace_back(v, 0);
  }
  std::vector<CsrAdjacency> adj;
  adj.push_back(CsrAdjacency::FromEdges(degree + 1, edges));
  g.SetAdjacency(std::move(adj));
  return g;
}

// The sparse shuffle records only the positions its swaps moved; it must
// draw exactly the ids, in the same order, as shuffling a dense copy.
TEST_F(NeighborSamplerTest, SparseShuffleMatchesDenseShuffle) {
  for (int fanout : {1, 3, 10}) {
    for (int degree : {fanout, fanout + 1, 10 * fanout, 5000}) {
      const HeteroGraph g = StarGraph(degree);
      const CsrAdjacency& adj = g.adjacency(0);
      const auto [b, e] = adj.NeighborRange(0);
      const std::vector<int32_t> neighbors(
          adj.indices().begin() + b, adj.indices().begin() + e);
      for (const NamedStore& s : Stores(g)) {
        SCOPED_TRACE(s.name + " fanout " + std::to_string(fanout) +
                     " degree " + std::to_string(degree));
        const NeighborSampler sampler(s.store.get(), {fanout});
        for (uint64_t seed : {3u, 41u, 977u}) {
          Rng rng(seed);
          Rng probe(seed);
          const uint64_t nonce = probe.Next();
          const SampledSubgraph sub = sampler.Sample({0}, &rng);
          const CsrAdjacency& block = sub.blocks[0].adjacency[0];
          std::vector<int32_t> drawn;
          const auto [db, de] = block.NeighborRange(0);
          for (int32_t k = db; k < de; ++k) {
            drawn.push_back(sub.input_nodes[static_cast<size_t>(
                block.indices()[static_cast<size_t>(k)])]);
          }
          EXPECT_EQ(drawn, DenseDraws(neighbors, fanout, nonce, 0, 0, 0));
        }
      }
    }
  }
}

}  // namespace
}  // namespace grimp
