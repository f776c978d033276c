#ifndef GRIMP_GRAPH_STORE_H_
#define GRIMP_GRAPH_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/delta.h"
#include "graph/hetero_graph.h"
#include "graph/shard.h"

namespace grimp {

class GraphStore;

// Where the graph's adjacency lives during training. Canonical names and
// parsers are in core/names.h (ShardModeName / ParseShardMode).
enum class ShardMode {
  kInMemory,  // whole graph resident (default; today's behavior)
  kSharded,   // out-of-core: spilled shards, LRU-bounded resident set
};

// Graph-layer knobs, nested in GrimpOptions as `graph` (mirroring
// TrainConfig). Validated by GraphConfig::Validate(), which GrimpOptions::
// Validate() calls.
struct GraphConfig {
  ShardMode shard_mode = ShardMode::kInMemory;

  // Sharded mode: number of RID-range shards; 0 = auto (~4 shards per
  // budget's worth of adjacency, so the LRU always has room to rotate).
  int num_shards = 0;
  // Sharded mode: resident adjacency budget in bytes.
  int64_t max_resident_bytes = 256ll << 20;
  // Sharded mode: directory for spill files; empty = a fresh temp
  // directory owned (and removed) by the store.
  std::string spill_dir;

  // Static graph pruning: keep at most this many random neighbors per node
  // per edge type at build time (0 == off). Contrast with
  // TrainConfig::fanouts, which resamples per minibatch step and leaves
  // the built graph intact; the two compose.
  int neighbor_cap = 0;

  Status Validate() const;
};

// RAII pin on one resident shard. While a scope is alive the shard cannot
// be evicted; the pointer it exposes stays valid for exactly that long.
// Movable, not copyable; destruction releases the pin (a no-op for the
// in-memory store).
class ShardScope {
 public:
  ShardScope() = default;
  ShardScope(const GraphStore* store, int shard_index,
             const GraphShard* shard)
      : store_(store), index_(shard_index), shard_(shard) {}
  ShardScope(ShardScope&& other) noexcept { *this = std::move(other); }
  ShardScope& operator=(ShardScope&& other) noexcept;
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
  ~ShardScope() { Release(); }

  const GraphShard& operator*() const { return *shard_; }
  const GraphShard* operator->() const { return shard_; }
  const GraphShard* get() const { return shard_; }
  int index() const { return index_; }

  void Release();

 private:
  const GraphStore* store_ = nullptr;
  int index_ = -1;
  const GraphShard* shard_ = nullptr;
};

// Storage abstraction behind GRIMP's graph layer (ROADMAP item 1, in the
// spirit of GraphLab's iengine/iscope decomposition): the quasi-bipartite
// graph is partitioned into contiguous node-range shards; consumers never
// touch a CSR directly, they Acquire() the shard covering a node and read
// its neighbor lists through the returned scope.
//
// Two implementations:
//  - InMemoryGraphStore: the degenerate single-shard case over a borrowed
//    HeteroGraph. Zero-copy, zero overhead; full_graph() exposes the graph
//    for whole-graph forwards (full-mode training, decode).
//  - ShardedGraphStore: slices the graph into degree-balanced shards,
//    spills every shard to a checksummed on-disk file, and serves Acquire()
//    from an LRU-bounded resident set — training then runs with resident
//    graph memory bounded by the configured budget instead of the graph.
//
// Thread safety: Acquire/Release/ForEachShard may be called from any
// thread (the sampler visits each layer's shard frontier on the shared
// thread pool). Shards themselves are immutable once resident.
class GraphStore {
 public:
  virtual ~GraphStore() = default;

  virtual int64_t num_nodes() const = 0;
  virtual int num_edge_types() const = 0;
  virtual int num_shards() const = 0;
  // Index of the shard whose node range contains `node`.
  virtual int ShardOf(int64_t node) const = 0;

  // Pins shard `s` resident and returns a scope for it, loading it from
  // disk first if necessary (blocking; concurrent acquires of the same
  // loading shard wait, acquires of different shards load in parallel).
  // Logically const: resident-set churn is internal state behind mu_.
  virtual ShardScope Acquire(int s) const = 0;

  // Calls fn(i, shard) once for each listed shard shards[i], with the
  // shard pinned only while fn runs. Visits may run concurrently (the
  // sharded store fans them out on the global pool), so fn must touch only
  // state owned by its `i`, and must not acquire shards itself. Default:
  // one serial Acquire per shard, on the calling thread.
  virtual void ForEachShard(
      std::span<const int> shards,
      FunctionRef<void(int64_t, const GraphShard&)> fn) const;

  // The whole graph, for consumers that need a full-graph forward (full
  // mode training, validation, decode). Non-null only for the in-memory
  // store; sharded callers must go through shards — that restriction is
  // what bounds their memory.
  virtual const HeteroGraph* full_graph() const { return nullptr; }

  // Total adjacency bytes across all shards (resident or not).
  virtual int64_t total_bytes() const = 0;

  // --- Mutable extension (streaming ingestion) ---------------------------
  // Applies a GraphDelta (see graph/delta.h): the node range grows
  // append-only to delta.new_num_nodes and each edge type's sorted delta
  // run merges into the stored adjacency, without a full rebuild. The
  // merged store is bit-identical to one built from scratch over the same
  // edge set. NOT thread-safe against readers: callers (the
  // StreamingEngine) must serialize Append against Acquire/ForEachShard and
  // other Appends; the sharded store additionally refuses to append while
  // any shard is pinned. Default: NotImplemented (immutable store).
  virtual Status Append(const GraphDelta& delta);

 protected:
  friend class ShardScope;
  // Drops one pin on shard `s` (paired with Acquire). Default no-op.
  virtual void Release(int s) const;
};

// Today's behavior as the degenerate case: one zero-copy shard over a
// borrowed graph, always resident, never evicted. `graph` must outlive the
// store.
class InMemoryGraphStore final : public GraphStore {
 public:
  explicit InMemoryGraphStore(const HeteroGraph* graph);

  // Mutable variant: Append() merges deltas straight into *graph (whose
  // node table the caller has already extended to delta.new_num_nodes) and
  // refreshes the store's view. The graph must not be mutated behind the
  // store's back between Append calls.
  explicit InMemoryGraphStore(HeteroGraph* graph);

  int64_t num_nodes() const override { return graph_->num_nodes(); }
  int num_edge_types() const override { return graph_->num_edge_types(); }
  int num_shards() const override { return 1; }
  int ShardOf(int64_t) const override { return 0; }
  ShardScope Acquire(int s) const override;
  const HeteroGraph* full_graph() const override { return graph_; }
  int64_t total_bytes() const override { return shard_.SizeBytes(); }
  Status Append(const GraphDelta& delta) override;

 private:
  const HeteroGraph* graph_;
  HeteroGraph* mutable_graph_ = nullptr;  // null for the immutable view
  GraphShard shard_;
};

// Out-of-core store: contiguous node-range shards balanced by total degree,
// each spilled to `<spill_dir>/shard_<i>.bin` at Create() time and pulled
// back on demand. The resident set is LRU-bounded by `max_resident_bytes`
// (pinned shards never evict; a lone shard larger than the budget still
// loads — the budget bounds the steady state, not a single shard).
//
// ForEachShard visits its shards on grain-1 pool lanes under the same
// budget: a lane whose shard cannot fit even after LRU eviction waits for
// another visit lane to release its pin, and loads anyway only when no
// other visit lane holds a pin or an in-flight load (pins held outside a
// visit, or a lone oversized shard, must not stall it).
//
// Metrics (registry): counters graph.shard.fetches / evictions / hits,
// gauges graph.shard.count / resident_shards / resident_bytes /
// resident_high_water_bytes / total_bytes (each set by whichever store
// published last), the gauge graph.shard.resident_high_water_ratio (the
// largest high_water_bytes / max_resident_bytes any sharded store in the
// process has reached; only ever raised), and the histogram
// graph.shard.load_micros (one sample per load: read, verify, parse, patch)
// with its parts: graph.shard.read_micros, verify_micros and parse_micros
// (one sample each per GraphShard::ReadFrom that gets that far) and
// patch_micros (one per load that merges appended edges).
class ShardedGraphStore final : public GraphStore {
 public:
  struct Options {
    int num_shards = 0;  // 0 = auto: ~4 shards per budget's worth of graph
    int64_t max_resident_bytes = 256ll << 20;
    // Existing directory for spill files (owned by the store); empty =
    // create a fresh temp directory and remove it on destruction.
    std::string spill_dir;
  };

  // Slices `graph` into shards and spills them. The graph is only read
  // during Create; afterwards the caller may free its adjacency (that is
  // the point). Fails on I/O errors or an invalid configuration.
  static Result<std::unique_ptr<ShardedGraphStore>> Create(
      const HeteroGraph& graph, const Options& options);

  ~ShardedGraphStore() override;

  int64_t num_nodes() const override { return num_nodes_; }
  int num_edge_types() const override { return num_edge_types_; }
  int num_shards() const override {
    return static_cast<int>(states_.size());
  }
  int ShardOf(int64_t node) const override;
  ShardScope Acquire(int s) const override;
  void ForEachShard(
      std::span<const int> shards,
      FunctionRef<void(int64_t, const GraphShard&)> fn) const override;
  int64_t total_bytes() const override { return total_bytes_; }
  // Sharded append: the delta's new node range becomes one additional
  // spilled shard; edges landing in existing shards are retained as
  // per-shard patches and merged lazily — a patched shard is rebuilt from
  // its base file + patch on its next load (resident unpinned copies are
  // dropped so no stale adjacency can be read). FailedPrecondition while
  // any shard is pinned.
  Status Append(const GraphDelta& delta) override;

  int64_t resident_bytes() const;
  int64_t high_water_bytes() const;

 private:
  enum class State { kUnloaded, kLoading, kResident };
  struct ShardState {
    State state = State::kUnloaded;
    GraphShard shard;
    int64_t size_bytes = 0;  // tracked across Create/Append, every state
    int pins = 0;
    uint64_t lru_tick = 0;
    std::string path;
    // Appended edges not yet in the on-disk file, per edge type, sorted by
    // (src, dst); applied on top of every load (GraphShard::Patched).
    std::vector<std::vector<std::pair<int32_t, int32_t>>> patch;
  };

  ShardedGraphStore() = default;
  void Release(int s) const override;
  // Pins shard `s`, loading it first if necessary. A `visit` pin (one
  // ForEachShard lane) follows the budget rule in the class comment and
  // counts in visit_holds_ until the matching Unpin.
  const GraphShard& Pin(int s, bool visit) const;
  void Unpin(int s, bool visit) const;
  // Evicts unpinned shards (LRU first) until `need` more bytes fit under
  // the budget or nothing evictable remains. Caller holds mu_.
  void EvictForLocked(int64_t need, int except) const;
  void PublishGauges() const;  // caller holds mu_
  // Loads a kLoading shard (file + patch, outside mu_), then publishes it
  // resident and pinned once. Aborts if the file cannot be loaded.
  void LoadShard(ShardState& state) const;

  int64_t num_nodes_ = 0;
  int num_edge_types_ = 0;
  int64_t total_bytes_ = 0;
  int64_t max_resident_bytes_ = 0;
  std::vector<int64_t> boundaries_;  // size num_shards + 1, [0 .. num_nodes]
  std::string spill_dir_;
  bool owns_spill_dir_ = false;  // Create made a temp dir; dtor removes it

  mutable std::mutex mu_;
  mutable std::condition_variable load_cv_;
  mutable std::vector<ShardState> states_;
  mutable int64_t resident_bytes_ = 0;
  mutable int64_t high_water_bytes_ = 0;
  mutable uint64_t lru_clock_ = 0;
  // ForEachShard lanes currently holding a pin or an in-flight load.
  mutable int visit_holds_ = 0;
};

// Shard-mode factory used by the engine: wraps `graph` in an
// InMemoryGraphStore (borrowing it — the graph must outlive the store) or
// slices it into a ShardedGraphStore according to `config`.
Result<std::unique_ptr<GraphStore>> MakeGraphStore(const HeteroGraph& graph,
                                                   const GraphConfig& config);

}  // namespace grimp

#endif  // GRIMP_GRAPH_STORE_H_
