// Tests for the out-of-core graph storage layer: GraphShard slicing and
// its checksummed on-disk format, the InMemoryGraphStore /
// ShardedGraphStore implementations behind the GraphStore API, the
// MakeGraphStore factory, and shard-count invariance of the neighbor
// sampler.

#include "graph/store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/names.h"
#include "graph/delta.h"
#include "graph/sampler.h"

namespace grimp {
namespace {

// A ring graph with `types` edge types: under type t, node i is connected
// to (i + t + 1) mod n, both directions, so every node has degree 2 per
// type and every shard slice has edges crossing its boundary.
HeteroGraph RingGraph(int64_t n, int types) {
  HeteroGraph g;
  for (int64_t i = 0; i < n; ++i) g.AddNode(NodeInfo{});
  std::vector<CsrAdjacency> adj;
  for (int t = 0; t < types; ++t) {
    std::vector<std::pair<int32_t, int32_t>> edges;
    for (int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<int32_t>(i);
      const auto v = static_cast<int32_t>((i + t + 1) % n);
      edges.emplace_back(u, v);
      edges.emplace_back(v, u);
    }
    adj.push_back(CsrAdjacency::FromEdges(n, edges));
  }
  g.SetAdjacency(std::move(adj));
  return g;
}

std::set<int32_t> ShardNeighbors(const GraphShard& shard, int t,
                                 int64_t node) {
  std::set<int32_t> out;
  auto [b, e] = shard.Neighbors(t, node);
  for (const int32_t* p = b; p < e; ++p) out.insert(*p);
  return out;
}

std::set<int32_t> GraphNeighbors(const HeteroGraph& g, int t, int64_t node) {
  std::set<int32_t> out;
  const auto [b, e] = g.adjacency(t).NeighborRange(node);
  for (int32_t k = b; k < e; ++k) {
    out.insert(g.adjacency(t).indices()[static_cast<size_t>(k)]);
  }
  return out;
}

// --- GraphShard ------------------------------------------------------------

TEST(GraphShardTest, SliceMatchesSourceGraph) {
  const HeteroGraph g = RingGraph(20, 2);
  const GraphShard shard = GraphShard::Slice(g, 5, 12);
  EXPECT_EQ(shard.begin(), 5);
  EXPECT_EQ(shard.end(), 12);
  EXPECT_EQ(shard.num_local_nodes(), 7);
  EXPECT_EQ(shard.num_edge_types(), 2);
  EXPECT_FALSE(shard.Contains(4));
  EXPECT_TRUE(shard.Contains(5));
  for (int t = 0; t < 2; ++t) {
    for (int64_t node = 5; node < 12; ++node) {
      EXPECT_EQ(ShardNeighbors(shard, t, node), GraphNeighbors(g, t, node))
          << "type " << t << " node " << node;
    }
  }
}

TEST(GraphShardTest, ViewCoversWholeGraphZeroCopy) {
  const HeteroGraph g = RingGraph(16, 2);
  const GraphShard view = GraphShard::View(g);
  EXPECT_EQ(view.begin(), 0);
  EXPECT_EQ(view.end(), g.num_nodes());
  EXPECT_EQ(view.num_edges(), g.TotalEdges());
  for (int t = 0; t < 2; ++t) {
    for (int64_t node = 0; node < g.num_nodes(); ++node) {
      EXPECT_EQ(ShardNeighbors(view, t, node), GraphNeighbors(g, t, node));
    }
  }
}

TEST(GraphShardTest, WriteReadRoundTrip) {
  const HeteroGraph g = RingGraph(24, 3);
  const GraphShard shard = GraphShard::Slice(g, 8, 17);
  const std::string path = testing::TempDir() + "grimp_shard_roundtrip.bin";
  ASSERT_TRUE(shard.WriteTo(path).ok());

  auto loaded = GraphShard::ReadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->begin(), shard.begin());
  EXPECT_EQ(loaded->end(), shard.end());
  EXPECT_EQ(loaded->num_edge_types(), shard.num_edge_types());
  EXPECT_EQ(loaded->num_edges(), shard.num_edges());
  EXPECT_EQ(loaded->SizeBytes(), shard.SizeBytes());
  for (int t = 0; t < 3; ++t) {
    for (int64_t node = 8; node < 17; ++node) {
      EXPECT_EQ(ShardNeighbors(*loaded, t, node),
                ShardNeighbors(shard, t, node));
    }
  }
  std::remove(path.c_str());
}

TEST(GraphShardTest, CorruptedFileIsRejected) {
  const HeteroGraph g = RingGraph(24, 2);
  const GraphShard shard = GraphShard::Slice(g, 0, 24);
  const std::string path = testing::TempDir() + "grimp_shard_corrupt.bin";
  ASSERT_TRUE(shard.WriteTo(path).ok());

  // Flip one byte in the middle of the payload: the trailing checksum must
  // catch it before any array is adopted.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(40);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(GraphShard::ReadFrom(path).ok());
  std::remove(path.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A shard file from the FNV-1a era (format v1) must fail on its version,
// before any hashing, and say which version it expected.
TEST(GraphShardTest, PreviousFormatVersionFailsOnVersion) {
  const HeteroGraph g = RingGraph(24, 2);
  const std::string path = testing::TempDir() + "grimp_shard_v1.bin";
  ASSERT_TRUE(GraphShard::Slice(g, 0, 24).WriteTo(path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint32_t v1 = 1;
  bytes.replace(sizeof(uint64_t), sizeof(v1),
                reinterpret_cast<const char*>(&v1), sizeof(v1));
  WriteFileBytes(path, bytes);

  const auto loaded = GraphShard::ReadFrom(path);
  ASSERT_FALSE(loaded.ok());
  const Status status = loaded.status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("expected 2, found 1"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.message().find("checksum mismatch"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(GraphShardTest, EveryTruncationFailsTyped) {
  const HeteroGraph g = RingGraph(12, 2);
  const std::string path = testing::TempDir() + "grimp_shard_trunc.bin";
  ASSERT_TRUE(GraphShard::Slice(g, 2, 9).WriteTo(path).ok());
  const std::string good = ReadFileBytes(path);
  for (size_t len = 0; len < good.size(); ++len) {
    WriteFileBytes(path, good.substr(0, len));
    const auto loaded = GraphShard::ReadFrom(path);
    ASSERT_FALSE(loaded.ok()) << "length " << len;
    EXPECT_TRUE(loaded.status().IsIoError() ||
                loaded.status().IsInvalidArgument())
        << "length " << len << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
  EXPECT_TRUE(GraphShard::ReadFrom(path).status().IsIoError());
}

// --- InMemoryGraphStore ----------------------------------------------------

TEST(InMemoryGraphStoreTest, SingleShardOverBorrowedGraph) {
  const HeteroGraph g = RingGraph(10, 2);
  const InMemoryGraphStore store(&g);
  EXPECT_EQ(store.num_nodes(), 10);
  EXPECT_EQ(store.num_edge_types(), 2);
  EXPECT_EQ(store.num_shards(), 1);
  EXPECT_EQ(store.ShardOf(0), 0);
  EXPECT_EQ(store.ShardOf(9), 0);
  EXPECT_EQ(store.full_graph(), &g);
  EXPECT_GT(store.total_bytes(), 0);

  const ShardScope scope = store.Acquire(0);
  ASSERT_NE(scope.get(), nullptr);
  EXPECT_EQ(scope->begin(), 0);
  EXPECT_EQ(scope->end(), 10);
  EXPECT_EQ(ShardNeighbors(*scope, 0, 3), GraphNeighbors(g, 0, 3));

  // The single shard is visited once, inline.
  int visits = 0;
  const std::vector<int> shards{0};
  store.ForEachShard(shards, [&](int64_t i, const GraphShard& shard) {
    EXPECT_EQ(i, 0);
    EXPECT_EQ(&shard, scope.get());
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

// --- ShardedGraphStore -----------------------------------------------------

ShardedGraphStore::Options StoreOptions(int shards, int64_t budget) {
  ShardedGraphStore::Options o;
  o.num_shards = shards;
  o.max_resident_bytes = budget;
  return o;
}

TEST(ShardedGraphStoreTest, BoundariesPartitionTheNodeRange) {
  const HeteroGraph g = RingGraph(100, 2);
  auto store = ShardedGraphStore::Create(g, StoreOptions(4, 1ll << 30));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_shards(), 4);
  EXPECT_EQ((*store)->num_nodes(), 100);

  int64_t covered = 0;
  for (int s = 0; s < 4; ++s) {
    const ShardScope scope = (*store)->Acquire(s);
    ASSERT_NE(scope.get(), nullptr);
    EXPECT_EQ(scope->begin(), covered) << "gap before shard " << s;
    EXPECT_GT(scope->end(), scope->begin());
    covered = scope->end();
    for (int64_t node = scope->begin(); node < scope->end(); ++node) {
      EXPECT_EQ((*store)->ShardOf(node), s);
    }
  }
  EXPECT_EQ(covered, 100);
}

TEST(ShardedGraphStoreTest, ReloadedShardsMatchTheSourceGraph) {
  const HeteroGraph g = RingGraph(60, 3);
  auto store = ShardedGraphStore::Create(g, StoreOptions(5, 1ll << 30));
  ASSERT_TRUE(store.ok());
  for (int s = 0; s < (*store)->num_shards(); ++s) {
    const ShardScope scope = (*store)->Acquire(s);
    for (int64_t node = scope->begin(); node < scope->end(); ++node) {
      for (int t = 0; t < 3; ++t) {
        EXPECT_EQ(ShardNeighbors(*scope, t, node), GraphNeighbors(g, t, node))
            << "shard " << s << " type " << t << " node " << node;
      }
    }
  }
}

TEST(ShardedGraphStoreTest, BudgetBoundsTheResidentSet) {
  const HeteroGraph g = RingGraph(400, 2);
  // Budget for roughly a quarter of the graph across 8 shards: serial
  // acquires must evict to stay under it.
  auto probe = ShardedGraphStore::Create(g, StoreOptions(8, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  const int64_t total = (*probe)->total_bytes();
  const int64_t budget = total / 4;

  auto store = ShardedGraphStore::Create(g, StoreOptions(8, budget));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->total_bytes(), total);
  for (int round = 0; round < 2; ++round) {
    for (int s = 0; s < 8; ++s) {
      const ShardScope scope = (*store)->Acquire(s);
      ASSERT_NE(scope.get(), nullptr);
      EXPECT_LE((*store)->resident_bytes(), budget);
    }
  }
  EXPECT_LE((*store)->high_water_bytes(), budget);
  EXPECT_LT((*store)->high_water_bytes(), total);
}

// Every load times its read, checksum verify and parse into their own
// histograms beside the whole load's, and a load that merges appended edges
// times the merge too.
TEST(ShardedGraphStoreTest, LoadTimingSplitsIntoPhases) {
  const HeteroGraph g = RingGraph(80, 2);
  auto store = ShardedGraphStore::Create(g, StoreOptions(4, 1));
  ASSERT_TRUE(store.ok());
  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto count = [&](const char* name) {
    return registry.GetHistogram(name).count();
  };
  const int64_t loads = count("graph.shard.load_micros");
  const int64_t reads = count("graph.shard.read_micros");
  const int64_t verifies = count("graph.shard.verify_micros");
  const int64_t parses = count("graph.shard.parse_micros");
  const int64_t patches = count("graph.shard.patch_micros");
  // A 1-byte budget keeps one shard resident, so each acquire loads.
  for (int s = 0; s < 4; ++s) (*store)->Acquire(s);
  EXPECT_EQ(count("graph.shard.load_micros") - loads, 4);
  EXPECT_EQ(count("graph.shard.read_micros") - reads, 4);
  EXPECT_EQ(count("graph.shard.verify_micros") - verifies, 4);
  EXPECT_EQ(count("graph.shard.parse_micros") - parses, 4);
  EXPECT_EQ(count("graph.shard.patch_micros") - patches, 0);

  // One new edge 0 <-> 40 under type 0: the shards of both ends gain a
  // patch, which each of their loads merges.
  GraphDelta delta;
  delta.new_num_nodes = 80;
  delta.edges.resize(2);
  delta.edges[0] = {{0, 40}, {40, 0}};
  ASSERT_TRUE((*store)->Append(delta).ok());
  const std::set<int> patched{(*store)->ShardOf(0), (*store)->ShardOf(40)};
  for (int s = 0; s < 4; ++s) (*store)->Acquire(s);
  EXPECT_EQ(count("graph.shard.load_micros") - loads, 8);
  EXPECT_EQ(count("graph.shard.patch_micros") - patches,
            static_cast<int64_t>(patched.size()));
}

// The bytes gauge reports whichever store published last; the ratio gauge
// keeps the tightest store's high water against its own budget.
TEST(ShardedGraphStoreTest, HighWaterRatioGaugeKeepsTheTightestStore) {
  const HeteroGraph g = RingGraph(400, 2);
  auto probe = ShardedGraphStore::Create(g, StoreOptions(8, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  const int64_t total = (*probe)->total_bytes();
  Gauge& ratio = MetricsRegistry::Global().GetGauge(
      "graph.shard.resident_high_water_ratio");
  Gauge& bytes = MetricsRegistry::Global().GetGauge(
      "graph.shard.resident_high_water_bytes");
  ratio.Reset();

  const int64_t tight_budget = total / 4;
  auto tight = ShardedGraphStore::Create(g, StoreOptions(8, tight_budget));
  ASSERT_TRUE(tight.ok());
  for (int s = 0; s < 8; ++s) (*tight)->Acquire(s);
  const double tight_ratio =
      static_cast<double>((*tight)->high_water_bytes()) /
      static_cast<double>(tight_budget);
  EXPECT_GT(tight_ratio, 0.5);
  EXPECT_LE(tight_ratio, 1.0);
  EXPECT_EQ(ratio.value(), tight_ratio);

  auto roomy = ShardedGraphStore::Create(g, StoreOptions(8, total * 8));
  ASSERT_TRUE(roomy.ok());
  for (int s = 0; s < 8; ++s) (*roomy)->Acquire(s);
  EXPECT_EQ(bytes.value(), static_cast<double>((*roomy)->high_water_bytes()));
  EXPECT_LT(static_cast<double>((*roomy)->high_water_bytes()) /
                static_cast<double>(total * 8),
            tight_ratio);
  EXPECT_EQ(ratio.value(), tight_ratio);
}

TEST(ShardedGraphStoreTest, PinnedShardSurvivesEvictionChurn) {
  const HeteroGraph g = RingGraph(240, 2);
  auto probe = ShardedGraphStore::Create(g, StoreOptions(6, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  const int64_t budget = (*probe)->total_bytes() / 3;

  auto store = ShardedGraphStore::Create(g, StoreOptions(6, budget));
  ASSERT_TRUE(store.ok());
  const ShardScope pinned = (*store)->Acquire(0);
  const std::set<int32_t> before = ShardNeighbors(*pinned, 0, 0);
  // Churn through every other shard under a budget that forces evictions;
  // the pin must keep shard 0's buffers untouched.
  for (int round = 0; round < 2; ++round) {
    for (int s = 1; s < 6; ++s) {
      const ShardScope scope = (*store)->Acquire(s);
      ASSERT_NE(scope.get(), nullptr);
    }
  }
  EXPECT_EQ(ShardNeighbors(*pinned, 0, 0), before);
  EXPECT_EQ(ShardNeighbors(*pinned, 0, 0), GraphNeighbors(g, 0, 0));
}

TEST(ShardedGraphStoreTest, LoneOversizedShardStillLoads) {
  const HeteroGraph g = RingGraph(50, 2);
  // A budget smaller than any single shard: the budget bounds the steady
  // state, not one shard, so acquires must still succeed.
  auto store = ShardedGraphStore::Create(g, StoreOptions(3, 1));
  ASSERT_TRUE(store.ok());
  for (int s = 0; s < 3; ++s) {
    const ShardScope scope = (*store)->Acquire(s);
    ASSERT_NE(scope.get(), nullptr);
    EXPECT_GT(scope->num_local_nodes(), 0);
  }
}

// Pins the global pool at `threads` for one test and restores it after.
class ScopedPoolThreads {
 public:
  explicit ScopedPoolThreads(int threads)
      : saved_(ThreadPool::GlobalThreads()) {
    ThreadPool::SetGlobalThreads(threads);
  }
  ~ScopedPoolThreads() { ThreadPool::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

// ForEachShard at 4 pool threads under a ~2-shard budget: every listed
// entry is visited exactly once, on the shard it names, and the lanes keep
// the resident set under the budget while they run concurrently.
TEST(ShardedGraphStoreTest, ForEachShardVisitsEachOnceUnderTheBudget) {
  const ScopedPoolThreads threads(4);
  const HeteroGraph g = RingGraph(240, 2);
  auto probe = ShardedGraphStore::Create(g, StoreOptions(6, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  const int64_t budget = (*probe)->total_bytes() / 3;

  auto store = ShardedGraphStore::Create(g, StoreOptions(6, budget));
  ASSERT_TRUE(store.ok());
  MetricsRegistry& registry = MetricsRegistry::Global();
  const int64_t fetches_before =
      registry.GetCounter("graph.shard.fetches").value();
  const int64_t loads_before =
      registry.GetHistogram("graph.shard.load_micros").count();

  // Every shard listed twice, out of order.
  const std::vector<int> shards{3, 0, 5, 1, 4, 2, 2, 4, 1, 5, 0, 3};
  std::vector<std::atomic<int>> visits(shards.size());
  std::vector<int> visited_shard(shards.size(), -1);
  std::vector<int64_t> resident_seen(shards.size(), 0);
  std::vector<char> parity(shards.size(), 0);
  (*store)->ForEachShard(shards, [&](int64_t i, const GraphShard& shard) {
    const auto slot = static_cast<size_t>(i);
    visits[slot].fetch_add(1);
    visited_shard[slot] = (*store)->ShardOf(shard.begin());
    bool same = true;
    for (int64_t node = shard.begin(); node < shard.end(); ++node) {
      same = same && ShardNeighbors(shard, 0, node) ==
                         GraphNeighbors(g, 0, node);
    }
    parity[slot] = same ? 1 : 0;
    // Hold the pin a moment so the lanes overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    resident_seen[slot] = (*store)->resident_bytes();
  });

  for (size_t i = 0; i < shards.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(visits[i].load(), 1);
    EXPECT_EQ(visited_shard[i], shards[i]);
    EXPECT_EQ(parity[i], 1);
    EXPECT_LE(resident_seen[i], budget);
  }
  EXPECT_LE((*store)->high_water_bytes(), budget);
  // Every visit load records one load_micros sample.
  const int64_t fetches =
      registry.GetCounter("graph.shard.fetches").value() - fetches_before;
  EXPECT_GE(fetches, 6);
  EXPECT_EQ(registry.GetHistogram("graph.shard.load_micros").count() -
                loads_before,
            fetches);
}

// Pins held outside a visit fill more than the budget: the visit lanes
// must still finish (loading past the budget when no other visit lane
// holds anything) and must leave the pinned adjacency untouched.
TEST(ShardedGraphStoreTest, ForEachShardProgressesWhenPinsHoldTheBudget) {
  const ScopedPoolThreads threads(4);
  const HeteroGraph g = RingGraph(240, 2);
  auto probe = ShardedGraphStore::Create(g, StoreOptions(6, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  const int64_t budget = (*probe)->total_bytes() / 3;

  auto store = ShardedGraphStore::Create(g, StoreOptions(6, budget));
  ASSERT_TRUE(store.ok());
  // Three pins exceed the ~2-shard budget (demand loads always succeed);
  // nothing resident is evictable while they are held.
  ShardScope pin0 = (*store)->Acquire(0);
  ShardScope pin1 = (*store)->Acquire(1);
  ShardScope pin2 = (*store)->Acquire(2);
  const std::set<int32_t> before = ShardNeighbors(*pin0, 0, 0);
  ASSERT_GT((*store)->resident_bytes(), budget);

  const std::vector<int> shards{3, 4, 5, 1};
  std::vector<std::atomic<int>> visits(shards.size());
  std::vector<char> parity(shards.size(), 0);
  (*store)->ForEachShard(shards, [&](int64_t i, const GraphShard& shard) {
    const auto slot = static_cast<size_t>(i);
    visits[slot].fetch_add(1);
    bool same = (*store)->ShardOf(shard.begin()) == shards[slot];
    for (int64_t node = shard.begin(); node < shard.end(); ++node) {
      same = same && ShardNeighbors(shard, 0, node) ==
                         GraphNeighbors(g, 0, node);
    }
    parity[slot] = same ? 1 : 0;
  });
  for (size_t i = 0; i < shards.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i));
    EXPECT_EQ(visits[i].load(), 1);
    EXPECT_EQ(parity[i], 1);
  }
  EXPECT_EQ(ShardNeighbors(*pin0, 0, 0), before);
  EXPECT_EQ(ShardNeighbors(*pin1, 0, pin1->begin()),
            GraphNeighbors(g, 0, pin1->begin()));
}

TEST(ShardedGraphStoreTest, AutoShardCountScalesWithBudget) {
  const HeteroGraph g = RingGraph(300, 2);
  auto probe = ShardedGraphStore::Create(g, StoreOptions(1, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  const int64_t total = (*probe)->total_bytes();

  // num_shards = 0: auto-derived as ~4 shards per budget's worth, so the
  // LRU always has room to rotate.
  auto store = ShardedGraphStore::Create(g, StoreOptions(0, total / 2));
  ASSERT_TRUE(store.ok());
  EXPECT_GE((*store)->num_shards(), 4);
}

// --- MakeGraphStore factory ------------------------------------------------

TEST(MakeGraphStoreTest, InMemoryModeExposesTheFullGraph) {
  const HeteroGraph g = RingGraph(30, 2);
  GraphConfig config;  // defaults: kInMemory
  auto store = MakeGraphStore(g, config);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->full_graph(), &g);
  EXPECT_EQ((*store)->num_shards(), 1);
}

TEST(MakeGraphStoreTest, ShardedModeHasNoFullGraph) {
  const HeteroGraph g = RingGraph(30, 2);
  GraphConfig config;
  config.shard_mode = ShardMode::kSharded;
  config.num_shards = 3;
  auto store = MakeGraphStore(g, config);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->full_graph(), nullptr);
  EXPECT_EQ((*store)->num_shards(), 3);
  EXPECT_EQ((*store)->num_nodes(), g.num_nodes());
}

TEST(GraphConfigTest, ValidateRejectsBadKnobs) {
  GraphConfig config;
  config.num_shards = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = GraphConfig{};
  config.shard_mode = ShardMode::kSharded;
  config.max_resident_bytes = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = GraphConfig{};
  config.neighbor_cap = -2;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(GraphConfig{}.Validate().ok());
}

TEST(ShardModeNamesTest, RoundTrip) {
  for (ShardMode mode : {ShardMode::kInMemory, ShardMode::kSharded}) {
    auto parsed = ParseShardMode(ShardModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(ParseShardMode("mmap").ok());
}

// --- Sampler invariance across stores --------------------------------------

void ExpectSameSubgraph(const SampledSubgraph& a, const SampledSubgraph& b) {
  EXPECT_EQ(a.input_nodes, b.input_nodes);
  EXPECT_EQ(a.output_nodes, b.output_nodes);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
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

TEST(SamplerStoreParityTest, BitIdenticalAcrossShardCounts) {
  const HeteroGraph g = RingGraph(80, 3);
  const InMemoryGraphStore in_memory(&g);
  const NeighborSampler reference(&in_memory, {2, 3});

  const std::vector<int32_t> seeds{0, 17, 42, 79, 33};
  Rng ref_rng(1234);
  const SampledSubgraph expected = reference.Sample(seeds, &ref_rng);

  for (int shards : {2, 5, 13}) {
    auto store = ShardedGraphStore::Create(g, StoreOptions(shards, 1ll << 30));
    ASSERT_TRUE(store.ok());
    const NeighborSampler sampler(store->get(), {2, 3});
    Rng rng(1234);
    const SampledSubgraph got = sampler.Sample(seeds, &rng);
    ExpectSameSubgraph(expected, got);
  }
}

TEST(SamplerStoreParityTest, TightBudgetDoesNotChangeDraws) {
  const HeteroGraph g = RingGraph(80, 2);
  const InMemoryGraphStore in_memory(&g);
  const NeighborSampler reference(&in_memory, {3});

  auto probe = ShardedGraphStore::Create(g, StoreOptions(8, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  auto store = ShardedGraphStore::Create(
      g, StoreOptions(8, (*probe)->total_bytes() / 4));
  ASSERT_TRUE(store.ok());
  const NeighborSampler sampler(store->get(), {3});

  const std::vector<int32_t> seeds{5, 25, 45, 65};
  for (int batch = 0; batch < 4; ++batch) {
    Rng ref_rng(777 + static_cast<uint64_t>(batch));
    Rng rng(777 + static_cast<uint64_t>(batch));
    ExpectSameSubgraph(reference.Sample(seeds, &ref_rng),
                       sampler.Sample(seeds, &rng));
  }
}

// The batch-prep pipeline's concurrency shape: several producer slots, each
// with its own NeighborSampler, sampling simultaneously against ONE
// ShardedGraphStore whose budget holds only ~2 of 8 shards. Every slot also
// holds a long-lived pin (as a slot does mid-prepare). Must not deadlock —
// Acquire always loads, pins only block eviction — and every subgraph must
// be bit-identical to a serial pass, since draws are keyed on the per-batch
// Rng, never on interleaving. In the TSan build this doubles as a race
// check on the store's Acquire/Release/Evict synchronization.
TEST(SamplerStoreParityTest, ConcurrentSamplersShareATightStore) {
  const HeteroGraph g = RingGraph(160, 2);
  const std::vector<int> fanouts{3, 2};
  constexpr int kThreads = 4;
  constexpr int kBatches = 16;

  // Per-batch seed sets and Rng seeds, shared by both passes.
  std::vector<std::vector<int32_t>> seeds(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < 5; ++i) {
      seeds[b].push_back(static_cast<int32_t>((37 * b + 13 * i) % 160));
    }
  }
  const auto rng_seed = [](int b) {
    return 991u + static_cast<uint64_t>(b);
  };

  // Serial reference over the in-memory store.
  const InMemoryGraphStore in_memory(&g);
  const NeighborSampler reference(&in_memory, fanouts);
  std::vector<SampledSubgraph> expected(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    Rng rng(rng_seed(b));
    expected[b] = reference.Sample(seeds[b], &rng);
  }

  // One sharded store with a ~2-shard-resident budget.
  auto probe = ShardedGraphStore::Create(g, StoreOptions(8, 1ll << 30));
  ASSERT_TRUE(probe.ok());
  auto store = ShardedGraphStore::Create(
      g, StoreOptions(8, (*probe)->total_bytes() / 4));
  ASSERT_TRUE(store.ok());

  // Threads only write disjoint slots; all gtest assertions run on the
  // main thread after the join.
  std::vector<SampledSubgraph> got(kBatches);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // A slot-style pin held across the whole run: with four of these the
      // pinned set alone exceeds the budget.
      const ShardScope pin = (*store)->Acquire(t * 2);
      const NeighborSampler sampler(store->get(), fanouts);
      for (int b = t; b < kBatches; b += kThreads) {
        Rng rng(rng_seed(b));
        got[b] = sampler.Sample(seeds[b], &rng);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int b = 0; b < kBatches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    ExpectSameSubgraph(expected[b], got[b]);
  }
}

}  // namespace
}  // namespace grimp
