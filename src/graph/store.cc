#include "graph/store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace grimp {

namespace {

Counter& FetchCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("graph.shard.fetches");
  return c;
}
Counter& EvictCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("graph.shard.evictions");
  return c;
}
Counter& HitCounter() {
  static Counter& c = MetricsRegistry::Global().GetCounter("graph.shard.hits");
  return c;
}

}  // namespace

Status GraphConfig::Validate() const {
  if (neighbor_cap < 0) {
    return Status::InvalidArgument(
        "GraphConfig.neighbor_cap must be >= 0, got " +
        std::to_string(neighbor_cap));
  }
  if (num_shards < 0) {
    return Status::InvalidArgument(
        "GraphConfig.num_shards must be >= 0, got " +
        std::to_string(num_shards));
  }
  if (shard_mode == ShardMode::kSharded && max_resident_bytes <= 0) {
    return Status::InvalidArgument(
        "GraphConfig.shard_mode=sharded requires max_resident_bytes > 0, "
        "got " +
        std::to_string(max_resident_bytes));
  }
  return Status::OK();
}

ShardScope& ShardScope::operator=(ShardScope&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    index_ = other.index_;
    shard_ = other.shard_;
    other.store_ = nullptr;
    other.index_ = -1;
    other.shard_ = nullptr;
  }
  return *this;
}

void ShardScope::Release() {
  if (store_ != nullptr) store_->Release(index_);
  store_ = nullptr;
  index_ = -1;
  shard_ = nullptr;
}

void GraphStore::ForEachShard(
    std::span<const int> shards,
    FunctionRef<void(int64_t, const GraphShard&)> fn) const {
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardScope scope = Acquire(shards[i]);
    fn(static_cast<int64_t>(i), *scope);
  }
}
void GraphStore::Release(int) const {}

Status GraphStore::Append(const GraphDelta&) {
  return Status::NotImplemented("this GraphStore is immutable");
}

InMemoryGraphStore::InMemoryGraphStore(const HeteroGraph* graph)
    : graph_(graph), shard_(GraphShard::View(*graph)) {}

InMemoryGraphStore::InMemoryGraphStore(HeteroGraph* graph)
    : graph_(graph), mutable_graph_(graph),
      shard_(GraphShard::View(*graph)) {}

ShardScope InMemoryGraphStore::Acquire(int s) const {
  GRIMP_CHECK_EQ(s, 0);
  return ShardScope(this, 0, &shard_);
}

Status InMemoryGraphStore::Append(const GraphDelta& delta) {
  if (mutable_graph_ == nullptr) {
    return Status::NotImplemented(
        "InMemoryGraphStore over a const graph is immutable");
  }
  // The caller extends the graph's node table (AddNode) before Append; the
  // delta's target size must agree with it.
  if (delta.new_num_nodes != mutable_graph_->num_nodes()) {
    return Status::InvalidArgument(
        "GraphDelta.new_num_nodes (" + std::to_string(delta.new_num_nodes) +
        ") != graph node table size (" +
        std::to_string(mutable_graph_->num_nodes()) + ")");
  }
  if (static_cast<int>(delta.edges.size()) != num_edge_types()) {
    return Status::InvalidArgument(
        "GraphDelta has " + std::to_string(delta.edges.size()) +
        " edge types, store has " + std::to_string(num_edge_types()));
  }
  std::vector<CsrAdjacency> merged;
  merged.reserve(delta.edges.size());
  for (int t = 0; t < num_edge_types(); ++t) {
    merged.push_back(MergeAdjacencyDelta(mutable_graph_->adjacency(t),
                                         delta.new_num_nodes,
                                         delta.edges[static_cast<size_t>(t)]));
  }
  mutable_graph_->SetAdjacency(std::move(merged));
  shard_ = GraphShard::View(*mutable_graph_);
  return Status::OK();
}

Result<std::unique_ptr<ShardedGraphStore>> ShardedGraphStore::Create(
    const HeteroGraph& graph, const Options& options) {
  if (graph.num_nodes() <= 0) {
    return Status::InvalidArgument(
        "ShardedGraphStore requires a non-empty graph");
  }
  if (options.max_resident_bytes <= 0) {
    return Status::InvalidArgument(
        "ShardedGraphStore.max_resident_bytes must be > 0, got " +
        std::to_string(options.max_resident_bytes));
  }
  if (options.num_shards < 0) {
    return Status::InvalidArgument(
        "ShardedGraphStore.num_shards must be >= 0, got " +
        std::to_string(options.num_shards));
  }

  const int64_t n = graph.num_nodes();
  const int num_types = graph.num_edge_types();

  // Per-node adjacency cost in bytes: one offset slot per type plus this
  // node's neighbor entries across all types. The degree-balanced cut below
  // equalizes the byte footprint of the shards, not their node counts —
  // cell-value nodes are far sparser than RID nodes.
  std::vector<const int32_t*> offsets(static_cast<size_t>(num_types));
  int64_t total_cost = static_cast<int64_t>(num_types) * (n + 1) *
                       static_cast<int64_t>(sizeof(int32_t));
  for (int t = 0; t < num_types; ++t) {
    const CsrAdjacency& adj = graph.adjacency(t);
    GRIMP_CHECK_EQ(adj.num_nodes(), n);
    offsets[static_cast<size_t>(t)] = adj.offsets().data();
    total_cost += static_cast<int64_t>(adj.num_edges()) *
                  static_cast<int64_t>(sizeof(int32_t));
  }

  int num_shards = options.num_shards;
  if (num_shards == 0) {
    // Auto: ~4 shards per budget's worth of adjacency, so the LRU can hold
    // several shards at once and still have room to rotate.
    num_shards = static_cast<int>(
        (4 * total_cost + options.max_resident_bytes - 1) /
        options.max_resident_bytes);
  }
  num_shards =
      static_cast<int>(std::clamp<int64_t>(num_shards, 1, std::min<int64_t>(
                                                              n, 1 << 20)));

  auto store = std::unique_ptr<ShardedGraphStore>(new ShardedGraphStore());
  store->num_nodes_ = n;
  store->num_edge_types_ = num_types;
  store->max_resident_bytes_ = options.max_resident_bytes;
  store->spill_dir_ = options.spill_dir;
  if (store->spill_dir_.empty()) {
    std::string tmpl = "/tmp/grimp_shards_XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      return Status::IoError("cannot create shard spill directory");
    }
    store->spill_dir_ = tmpl;
    store->owns_spill_dir_ = true;
  }

  // Degree-balanced contiguous boundaries: cut shard k where the running
  // byte cost crosses k/num_shards of the total.
  std::vector<int64_t>& bounds = store->boundaries_;
  bounds.assign(static_cast<size_t>(num_shards) + 1, n);
  bounds[0] = 0;
  int64_t acc = 0;
  int next_cut = 1;
  for (int64_t v = 0; v < n && next_cut < num_shards; ++v) {
    int64_t cost = static_cast<int64_t>(num_types) * sizeof(int32_t);
    for (int t = 0; t < num_types; ++t) {
      const int32_t* off = offsets[static_cast<size_t>(t)];
      cost += static_cast<int64_t>(off[v + 1] - off[v]) * sizeof(int32_t);
    }
    acc += cost;
    while (next_cut < num_shards &&
           acc * num_shards >= total_cost * next_cut) {
      bounds[static_cast<size_t>(next_cut++)] = v + 1;
    }
  }

  // Slice and spill every shard; shards are independent, so this fans out
  // on the global pool (nested calls run inline, so Create is safe to call
  // from a worker).
  store->states_.resize(static_cast<size_t>(num_shards));
  std::vector<Status> statuses(static_cast<size_t>(num_shards));
  ThreadPool::Global().ParallelFor(
      0, num_shards, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) {
          ShardState& state = store->states_[static_cast<size_t>(s)];
          state.path = store->spill_dir_ + "/shard_" + std::to_string(s) +
                       ".bin";
          GraphShard shard = GraphShard::Slice(
              graph, bounds[static_cast<size_t>(s)],
              bounds[static_cast<size_t>(s) + 1]);
          state.size_bytes = shard.SizeBytes();
          statuses[static_cast<size_t>(s)] = shard.WriteTo(state.path);
        }
      });
  for (const Status& st : statuses) GRIMP_RETURN_IF_ERROR(st);

  for (const ShardState& state : store->states_) {
    store->total_bytes_ += state.size_bytes;
  }
  MetricsRegistry::Global().GetGauge("graph.shard.count")
      .Set(static_cast<double>(num_shards));
  MetricsRegistry::Global().GetGauge("graph.shard.total_bytes")
      .Set(static_cast<double>(store->total_bytes_));
  {
    std::lock_guard<std::mutex> lock(store->mu_);
    store->PublishGauges();
  }
  return store;
}

ShardedGraphStore::~ShardedGraphStore() {
  for (const ShardState& state : states_) {
    if (!state.path.empty()) std::remove(state.path.c_str());
  }
  if (owns_spill_dir_) rmdir(spill_dir_.c_str());
}

int ShardedGraphStore::ShardOf(int64_t node) const {
  GRIMP_DCHECK(node >= 0 && node < num_nodes_);
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), node);
  return static_cast<int>(it - boundaries_.begin()) - 1;
}

ShardScope ShardedGraphStore::Acquire(int s) const {
  return ShardScope(this, s, &Pin(s, /*visit=*/false));
}

const GraphShard& ShardedGraphStore::Pin(int s, bool visit) const {
  GRIMP_CHECK(s >= 0 && s < num_shards());
  std::unique_lock<std::mutex> lock(mu_);
  ShardState& state = states_[static_cast<size_t>(s)];
  for (;;) {
    if (state.state == State::kResident) {
      HitCounter().Increment();
      ++state.pins;
      state.lru_tick = ++lru_clock_;
      if (visit) ++visit_holds_;
      return state.shard;
    }
    if (state.state == State::kLoading) {
      load_cv_.wait(lock);
      continue;
    }
    // Unloaded: reserve the bytes (so concurrent loads respect the budget),
    // load outside the lock, publish. A lone shard larger than the budget
    // still loads — the budget bounds the steady state, not a single shard.
    EvictForLocked(state.size_bytes, s);
    if (visit && visit_holds_ > 0 &&
        resident_bytes_ + state.size_bytes > max_resident_bytes_) {
      // Another visit lane will release a pin without waiting on anything:
      // wait for it instead of overshooting the budget. This lane holds
      // nothing, so the wait cannot close a cycle.
      load_cv_.wait(lock);
      continue;
    }
    state.state = State::kLoading;
    resident_bytes_ += state.size_bytes;
    high_water_bytes_ = std::max(high_water_bytes_, resident_bytes_);
    if (visit) ++visit_holds_;
    FetchCounter().Increment();
    PublishGauges();
    lock.unlock();
    LoadShard(state);
    return state.shard;
  }
}

void ShardedGraphStore::Unpin(int s, bool visit) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ShardState& state = states_[static_cast<size_t>(s)];
    GRIMP_DCHECK(state.pins > 0);
    --state.pins;
    if (visit) --visit_holds_;
  }
  load_cv_.notify_all();  // a visit lane may be waiting for the room
}

void ShardedGraphStore::ForEachShard(
    std::span<const int> shards,
    FunctionRef<void(int64_t, const GraphShard&)> fn) const {
  ThreadPool::Global().ParallelFor(
      0, static_cast<int64_t>(shards.size()), 1,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int s = shards[static_cast<size_t>(i)];
          fn(i, Pin(s, /*visit=*/true));
          Unpin(s, /*visit=*/true);
        }
      });
}

void ShardedGraphStore::LoadShard(ShardState& state) const {
  const auto start = std::chrono::steady_clock::now();
  Result<GraphShard> loaded = GraphShard::ReadFrom(state.path);
  GRIMP_CHECK(loaded.ok()) << "shard load failed: "
                           << loaded.status().ToString();
  GraphShard shard = std::move(loaded).ValueOrDie();
  // Appended edges live in the patch until the file is rewritten; merge
  // them on every load. (Reading state.patch unlocked is safe: Append is
  // serialized against loads by the streaming engine, and refuses to run
  // while any shard is kLoading.)
  static Histogram& patch_micros =
      MetricsRegistry::Global().GetHistogram("graph.shard.patch_micros");
  static Histogram& load_micros =
      MetricsRegistry::Global().GetHistogram("graph.shard.load_micros");
  const auto read = std::chrono::steady_clock::now();
  if (!state.patch.empty()) {
    shard = GraphShard::Patched(shard, state.patch);
    patch_micros.Record(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - read)
                            .count());
  }
  load_micros.Record(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  {
    std::lock_guard<std::mutex> lock(mu_);
    state.shard = std::move(shard);
    state.state = State::kResident;
    ++state.pins;
    state.lru_tick = ++lru_clock_;
    PublishGauges();
  }
  load_cv_.notify_all();
}

Status ShardedGraphStore::Append(const GraphDelta& delta) {
  if (delta.new_num_nodes < num_nodes_) {
    return Status::InvalidArgument(
        "GraphDelta.new_num_nodes (" + std::to_string(delta.new_num_nodes) +
        ") shrinks the store (" + std::to_string(num_nodes_) + " nodes)");
  }
  if (static_cast<int>(delta.edges.size()) != num_edge_types_) {
    return Status::InvalidArgument(
        "GraphDelta has " + std::to_string(delta.edges.size()) +
        " edge types, store has " + std::to_string(num_edge_types_));
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const ShardState& state : states_) {
    if (state.pins > 0) {
      return Status::FailedPrecondition(
          "cannot Append to a ShardedGraphStore while shards are pinned");
    }
    if (state.state == State::kLoading) {
      return Status::FailedPrecondition(
          "cannot Append to a ShardedGraphStore while a load is in flight");
    }
  }

  const int64_t old_n = num_nodes_;
  const int old_shards = num_shards();

  // Split each type's sorted run at old_n: edges whose source is an
  // existing node become per-shard patches, sources in the appended range
  // feed the new shard. Both splits inherit the run's (src, dst) order.
  std::vector<std::vector<std::vector<std::pair<int32_t, int32_t>>>>
      patch_add(static_cast<size_t>(old_shards));
  std::vector<std::vector<std::pair<int32_t, int32_t>>> fresh(
      static_cast<size_t>(num_edge_types_));
  for (int t = 0; t < num_edge_types_; ++t) {
    for (const auto& edge : delta.edges[static_cast<size_t>(t)]) {
      if (edge.first < old_n) {
        auto& per_shard = patch_add[static_cast<size_t>(ShardOf(edge.first))];
        if (per_shard.empty()) {
          per_shard.resize(static_cast<size_t>(num_edge_types_));
        }
        per_shard[static_cast<size_t>(t)].push_back(edge);
      } else {
        if (edge.first >= delta.new_num_nodes) {
          return Status::InvalidArgument(
              "GraphDelta edge source " + std::to_string(edge.first) +
              " outside new node range");
        }
        fresh[static_cast<size_t>(t)].push_back(edge);
      }
    }
  }

  // Fold the additions into each touched shard's pending patch (sorted
  // merge per type — cell updates splice new RIDs into the middle of
  // existing neighbor runs) and drop any resident copy so the next load
  // rebuilds from file + patch. Pins are zero, so dropping is safe.
  for (int s = 0; s < old_shards; ++s) {
    auto& add = patch_add[static_cast<size_t>(s)];
    if (add.empty()) continue;
    ShardState& state = states_[static_cast<size_t>(s)];
    int64_t added = 0;
    if (state.patch.empty()) {
      for (const auto& run : add) added += static_cast<int64_t>(run.size());
      state.patch = std::move(add);
    } else {
      for (int t = 0; t < num_edge_types_; ++t) {
        auto& base_run = state.patch[static_cast<size_t>(t)];
        auto& add_run = add[static_cast<size_t>(t)];
        if (add_run.empty()) continue;
        added += static_cast<int64_t>(add_run.size());
        std::vector<std::pair<int32_t, int32_t>> merged;
        merged.reserve(base_run.size() + add_run.size());
        std::merge(base_run.begin(), base_run.end(), add_run.begin(),
                   add_run.end(), std::back_inserter(merged));
        base_run = std::move(merged);
      }
    }
    if (state.state == State::kResident) {
      resident_bytes_ -= state.size_bytes;
      state.shard = GraphShard();
      state.state = State::kUnloaded;
      EvictCounter().Increment();
    }
    const int64_t patch_bytes =
        added * static_cast<int64_t>(sizeof(int32_t));
    state.size_bytes += patch_bytes;
    total_bytes_ += patch_bytes;
  }

  // The appended node range becomes one new spilled shard (possibly
  // edgeless — isolated nodes still need offsets rows).
  if (delta.new_num_nodes > old_n) {
    ShardState state;
    state.path = spill_dir_ + "/shard_" + std::to_string(states_.size()) +
                 ".bin";
    GraphShard shard = GraphShard::FromSortedEdges(
        old_n, delta.new_num_nodes, num_edge_types_, fresh);
    state.size_bytes = shard.SizeBytes();
    GRIMP_RETURN_IF_ERROR(shard.WriteTo(state.path));
    total_bytes_ += state.size_bytes;
    boundaries_.push_back(delta.new_num_nodes);
    states_.push_back(std::move(state));
    num_nodes_ = delta.new_num_nodes;
  } else {
    for (const auto& run : fresh) {
      GRIMP_CHECK(run.empty());
    }
  }

  MetricsRegistry::Global().GetGauge("graph.shard.count")
      .Set(static_cast<double>(num_shards()));
  MetricsRegistry::Global().GetGauge("graph.shard.total_bytes")
      .Set(static_cast<double>(total_bytes_));
  PublishGauges();
  return Status::OK();
}

void ShardedGraphStore::Release(int s) const {
  Unpin(s, /*visit=*/false);
}

void ShardedGraphStore::EvictForLocked(int64_t need, int except) const {
  while (resident_bytes_ + need > max_resident_bytes_) {
    int victim = -1;
    uint64_t oldest = 0;
    for (int s = 0; s < num_shards(); ++s) {
      const ShardState& state = states_[static_cast<size_t>(s)];
      if (s == except || state.state != State::kResident || state.pins > 0) {
        continue;
      }
      if (victim < 0 || state.lru_tick < oldest) {
        victim = s;
        oldest = state.lru_tick;
      }
    }
    if (victim < 0) return;  // everything resident is pinned or loading
    ShardState& state = states_[static_cast<size_t>(victim)];
    state.shard = GraphShard();
    state.state = State::kUnloaded;
    resident_bytes_ -= state.size_bytes;
    EvictCounter().Increment();
  }
}

void ShardedGraphStore::PublishGauges() const {
  int resident = 0;
  for (const ShardState& state : states_) {
    if (state.state == State::kResident) ++resident;
  }
  static Gauge& resident_shards =
      MetricsRegistry::Global().GetGauge("graph.shard.resident_shards");
  static Gauge& resident_bytes =
      MetricsRegistry::Global().GetGauge("graph.shard.resident_bytes");
  static Gauge& high_water = MetricsRegistry::Global().GetGauge(
      "graph.shard.resident_high_water_bytes");
  static Gauge& high_water_ratio = MetricsRegistry::Global().GetGauge(
      "graph.shard.resident_high_water_ratio");
  resident_shards.Set(static_cast<double>(resident));
  resident_bytes.Set(static_cast<double>(resident_bytes_));
  high_water.Set(static_cast<double>(high_water_bytes_));
  high_water_ratio.RaiseTo(static_cast<double>(high_water_bytes_) /
                           static_cast<double>(max_resident_bytes_));
}

int64_t ShardedGraphStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

int64_t ShardedGraphStore::high_water_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_bytes_;
}

Result<std::unique_ptr<GraphStore>> MakeGraphStore(const HeteroGraph& graph,
                                                   const GraphConfig& config) {
  GRIMP_RETURN_IF_ERROR(config.Validate());
  if (config.shard_mode == ShardMode::kInMemory) {
    return std::unique_ptr<GraphStore>(new InMemoryGraphStore(&graph));
  }
  ShardedGraphStore::Options options;
  options.num_shards = config.num_shards;
  options.max_resident_bytes = config.max_resident_bytes;
  options.spill_dir = config.spill_dir;
  GRIMP_ASSIGN_OR_RETURN(auto store,
                         ShardedGraphStore::Create(graph, options));
  return std::unique_ptr<GraphStore>(std::move(store));
}

}  // namespace grimp
