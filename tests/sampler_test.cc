#include "graph/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
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

// 120 nodes under two edge types: type 0 links each node to two
// pseudo-random others and makes node 0 a hub over every third node; type 1
// holds 150 random edges. All edges bidirectional.
HeteroGraph MixedGraph() {
  constexpr int32_t kNodes = 120;
  HeteroGraph g;
  for (int32_t i = 0; i < kNodes; ++i) g.AddNode(NodeInfo{});
  std::vector<std::pair<int32_t, int32_t>> t0, t1;
  const auto link = [](std::vector<std::pair<int32_t, int32_t>>* edges,
                       int32_t a, int32_t b) {
    if (a == b) return;
    edges->emplace_back(a, b);
    edges->emplace_back(b, a);
  };
  for (int32_t v = 0; v < kNodes; ++v) {
    link(&t0, v, (7 * v + 1) % kNodes);
    link(&t0, v, (13 * v + 5) % kNodes);
    if (v % 3 == 0) link(&t0, 0, v);
  }
  Rng rng(5);
  for (int e = 0; e < 150; ++e) {
    link(&t1, static_cast<int32_t>(rng.Uniform(kNodes)),
         static_cast<int32_t>(rng.Uniform(kNodes)));
  }
  std::sort(t0.begin(), t0.end());
  t0.erase(std::unique(t0.begin(), t0.end()), t0.end());
  std::sort(t1.begin(), t1.end());
  t1.erase(std::unique(t1.begin(), t1.end()), t1.end());
  std::vector<CsrAdjacency> adj;
  adj.push_back(CsrAdjacency::FromEdges(kNodes, t0));
  adj.push_back(CsrAdjacency::FromEdges(kNodes, t1));
  g.SetAdjacency(std::move(adj));
  return g;
}

// A sharded store of `g` whose budget holds its largest shard, so nearly
// every shard a visit needs must be loaded again.
std::unique_ptr<GraphStore> OneShardBudgetStore(const HeteroGraph& g,
                                                int num_shards) {
  ShardedGraphStore::Options options;
  options.num_shards = num_shards;
  options.max_resident_bytes = 1ll << 40;
  auto probe = ShardedGraphStore::Create(g, options);
  EXPECT_TRUE(probe.ok());
  if (!probe.ok()) return nullptr;
  int64_t largest = 0;
  for (int s = 0; s < (*probe)->num_shards(); ++s) {
    largest = std::max(largest, (*probe)->Acquire(s)->SizeBytes());
  }
  options.max_resident_bytes = largest;
  auto store = ShardedGraphStore::Create(g, options);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return nullptr;
  return std::move(store).ValueOrDie();
}

// Batch b of a group of `count`: distinct seeds that overlap the other
// batches (node 0 and node 5 recur), except that the last batch of a group
// of two or more is the dummy seed {0} of a fully masked batch.
std::vector<std::vector<int32_t>> GroupSeeds(int count) {
  std::vector<std::vector<int32_t>> seeds(static_cast<size_t>(count));
  for (int b = 0; b < count; ++b) {
    std::vector<int32_t>& batch = seeds[static_cast<size_t>(b)];
    if (count > 1 && b == count - 1) {
      batch = {0};
      continue;
    }
    batch = {5};
    if (b == 0) batch.push_back(0);
    for (int i = 0; i < 6; ++i) {
      const auto node = static_cast<int32_t>((19 * b + 37 * i + 11) % 120);
      if (std::find(batch.begin(), batch.end(), node) == batch.end()) {
        batch.push_back(node);
      }
    }
  }
  return seeds;
}

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameBits(const SampledSubgraph& want, const SampledSubgraph& got) {
  EXPECT_TRUE(SameBits(want.input_nodes, got.input_nodes));
  EXPECT_TRUE(SameBits(want.output_nodes, got.output_nodes));
  ASSERT_EQ(want.blocks.size(), got.blocks.size());
  for (size_t l = 0; l < want.blocks.size(); ++l) {
    SCOPED_TRACE("block " + std::to_string(l));
    EXPECT_EQ(want.blocks[l].num_src, got.blocks[l].num_src);
    EXPECT_EQ(want.blocks[l].num_dst, got.blocks[l].num_dst);
    ASSERT_EQ(want.blocks[l].adjacency.size(), got.blocks[l].adjacency.size());
    for (size_t t = 0; t < want.blocks[l].adjacency.size(); ++t) {
      EXPECT_TRUE(SameBits(want.blocks[l].adjacency[t].offsets(),
                           got.blocks[l].adjacency[t].offsets()));
      EXPECT_TRUE(SameBits(want.blocks[l].adjacency[t].indices(),
                           got.blocks[l].adjacency[t].indices()));
    }
  }
}

// Restores the global pool size a test changes.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : threads_(ThreadPool::GlobalThreads()) {}
  ~PoolSizeGuard() { ThreadPool::SetGlobalThreads(threads_); }

 private:
  int threads_;
};

// A group's members draw into their own slots with their own nonces, so
// each member's subgraph is the one its own Sample call yields, bit for
// bit — also for seeds two members share and for a dummy-seed member. The
// group's outputs are reused from group to group, so later groups refill
// storage that earlier, differently sized ones grew.
TEST_F(NeighborSamplerTest, GroupMatchesOneSamplePerBatch) {
  const HeteroGraph g = MixedGraph();
  PoolSizeGuard guard;
  std::vector<NamedStore> stores;
  stores.push_back({"in_memory", std::make_unique<InMemoryGraphStore>(&g)});
  stores.push_back({"one_shard_budget", OneShardBudgetStore(g, 5)});
  ASSERT_NE(stores.back().store, nullptr);
  for (const NamedStore& s : stores) {
    for (const int threads : {1, 4}) {
      ThreadPool::SetGlobalThreads(threads);
      const NeighborSampler single(s.store.get(), {3, 2});
      const NeighborSampler grouped(s.store.get(), {3, 2});
      std::vector<SampledSubgraph> outs;
      for (const int count : {1, 2, 3, 5}) {
        SCOPED_TRACE(s.name + " threads " + std::to_string(threads) +
                     " group " + std::to_string(count));
        const std::vector<std::vector<int32_t>> seeds = GroupSeeds(count);
        std::vector<Rng> rngs;
        for (int b = 0; b < count; ++b) rngs.emplace_back(400 + b);
        outs.resize(static_cast<size_t>(count));
        std::vector<NeighborSampler::Member> members;
        for (size_t b = 0; b < seeds.size(); ++b) {
          members.push_back({&seeds[b], &rngs[b], &outs[b]});
        }
        grouped.SampleGroup(members);
        for (int b = 0; b < count; ++b) {
          SCOPED_TRACE("batch " + std::to_string(b));
          Rng rng(400 + b);
          ExpectSameBits(single.Sample(seeds[static_cast<size_t>(b)], &rng),
                         outs[static_cast<size_t>(b)]);
          EXPECT_EQ(rng.Next(), rngs[static_cast<size_t>(b)].Next());
        }
      }
    }
  }
}

// One visit per shard per layer for the whole group: under a one-shard
// budget a group loads at most layers x (shards it touches) shards,
// however many batches it holds (one Sample per batch loads about that
// many per batch).
TEST_F(NeighborSamplerTest, GroupFetchesAtMostLayersTimesTouchedShards) {
  const HeteroGraph g = MixedGraph();
  const std::unique_ptr<GraphStore> store = OneShardBudgetStore(g, 6);
  ASSERT_NE(store, nullptr);
  const std::vector<int> fanouts{3, 2};
  const NeighborSampler sampler(store.get(), fanouts);
  Counter& fetches =
      MetricsRegistry::Global().GetCounter("graph.shard.fetches");
  for (const int count : {1, 2, 4, 8}) {
    SCOPED_TRACE("group " + std::to_string(count));
    const std::vector<std::vector<int32_t>> seeds = GroupSeeds(count);
    std::vector<Rng> rngs;
    for (int b = 0; b < count; ++b) rngs.emplace_back(900 + b);
    std::vector<SampledSubgraph> outs(static_cast<size_t>(count));
    std::vector<NeighborSampler::Member> members;
    for (size_t b = 0; b < seeds.size(); ++b) {
      members.push_back({&seeds[b], &rngs[b], &outs[b]});
    }
    const int64_t before = fetches.value();
    sampler.SampleGroup(members);
    const int64_t loaded = fetches.value() - before;
    // Every layer's frontier lies inside its member's input nodes.
    std::set<int> touched;
    for (const SampledSubgraph& sub : outs) {
      for (const int32_t node : sub.input_nodes) {
        touched.insert(store->ShardOf(node));
      }
    }
    EXPECT_GT(loaded, 0);
    EXPECT_LE(loaded, static_cast<int64_t>(fanouts.size() * touched.size()));
  }
}

}  // namespace
}  // namespace grimp
