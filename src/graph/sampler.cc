#include "graph/sampler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace grimp {

NeighborSampler::NeighborSampler(const GraphStore* store,
                                 std::vector<int> fanouts)
    : store_(store), fanouts_(std::move(fanouts)) {
  GRIMP_CHECK(store_ != nullptr);
  GRIMP_CHECK(!fanouts_.empty());
  for (int fanout : fanouts_) GRIMP_CHECK_GT(fanout, 0);
}

std::vector<int32_t> NeighborSampler::TakeVec() const {
  if (pool_.empty()) return {};
  std::vector<int32_t> v = std::move(pool_.back());
  pool_.pop_back();
  return v;
}

void NeighborSampler::Recycle(std::vector<int32_t> v) const {
  v.clear();  // keeps capacity
  pool_.push_back(std::move(v));
}

SampledSubgraph NeighborSampler::Sample(const std::vector<int32_t>& seeds,
                                        Rng* rng) const {
  SampledSubgraph out;
  Sample(seeds, rng, &out);
  return out;
}

void NeighborSampler::SampleNode(const GraphShard& shard, int layer,
                                 int64_t frontier_size, int64_t dst_index,
                                 int32_t node, uint64_t nonce) const {
  const int fanout = fanouts_[static_cast<size_t>(layer)];
  const int num_types = shard.num_edge_types();
  for (int t = 0; t < num_types; ++t) {
    const auto [begin, end] = shard.Neighbors(t, node);
    const int degree = static_cast<int>(end - begin);
    int32_t* draws =
        draw_scratch_.data() +
        (static_cast<int64_t>(t) * frontier_size + dst_index) * fanout;
    int32_t count;
    if (degree <= fanout) {
      for (int k = 0; k < degree; ++k) draws[k] = begin[k];
      count = degree;
    } else {
      // Partial Fisher-Yates: the first `fanout` entries of a uniformly
      // shuffled copy, i.e. a uniform sample without replacement, drawn
      // from this node's own stream. The stream is keyed on the per-Sample
      // nonce and the (layer, type, node) coordinates — never on the order
      // nodes are visited in — so regrouping the frontier by shard cannot
      // change what gets drawn.
      //
      // The copy stays virtual: `moved` holds the positions a swap wrote
      // to (at most `fanout`; position k is never read once step k drew
      // it), every other position reads begin[j] in place. O(fanout^2) at
      // any degree, no shared scratch, the dense shuffle's Uniform calls.
      Rng stream(MixSeed(nonce ^ static_cast<uint64_t>(layer),
                         static_cast<uint64_t>(t),
                         static_cast<uint64_t>(node)));
      thread_local std::vector<std::pair<int32_t, int32_t>> moved;
      moved.clear();
      const auto find = [&](int32_t pos) -> int32_t* {
        for (auto& [p, v] : moved) {
          if (p == pos) return &v;
        }
        return nullptr;
      };
      for (int k = 0; k < fanout; ++k) {
        const auto j = static_cast<int32_t>(
            k + stream.Uniform(static_cast<uint64_t>(degree - k)));
        int32_t* at_j = find(j);
        draws[k] = at_j != nullptr ? *at_j : begin[j];
        if (j == k) continue;
        const int32_t* at_k = find(k);
        const int32_t displaced = at_k != nullptr ? *at_k : begin[k];
        if (at_j != nullptr) {
          *at_j = displaced;
        } else {
          moved.emplace_back(j, displaced);
        }
      }
      count = fanout;
    }
    draw_count_[static_cast<size_t>(t * frontier_size + dst_index)] = count;
  }
}

void NeighborSampler::Sample(const std::vector<int32_t>& seeds, Rng* rng,
                             SampledSubgraph* out) const {
  GRIMP_CHECK(out != nullptr);
  const int num_layers = static_cast<int>(fanouts_.size());
  const int num_types = store_->num_edge_types();
  const int num_shards = store_->num_shards();
  const int64_t num_nodes = store_->num_nodes();
  if (static_cast<int64_t>(local_id_.size()) < num_nodes) {
    local_id_.assign(static_cast<size_t>(num_nodes), -1);
  }
  // One nonce per call keeps successive Samples decorrelated while leaving
  // every per-node stream independent of traversal order.
  const uint64_t nonce = rng->Next();

  // Scavenge the previous call's storage before overwriting anything: every
  // index vector inside *out goes back to the pool with its capacity, and
  // the GraphBlock slots themselves are reused in place.
  for (GraphBlock& block : out->blocks) {
    for (CsrAdjacency& adj : block.adjacency) {
      std::vector<int32_t> offsets;
      std::vector<int32_t> indices;
      adj.ReleaseParts(&offsets, &indices);
      Recycle(std::move(offsets));
      Recycle(std::move(indices));
    }
    block.adjacency.clear();  // keeps capacity
  }
  if (static_cast<int>(out->blocks.size()) != num_layers) {
    out->blocks.resize(static_cast<size_t>(num_layers));
  }
  Recycle(std::move(out->input_nodes));
  out->output_nodes = seeds;  // copy-assign reuses capacity

  // Sample outermost layer first: its destinations are the seeds, and each
  // pass's source set becomes the next (inner) pass's destination set.
  std::vector<int32_t> cur = TakeVec();
  cur.assign(seeds.begin(), seeds.end());

  // Per-shard frontier grouping scratch (recycled across layers).
  std::vector<int32_t> shard_of = TakeVec();
  std::vector<int32_t> shard_start = TakeVec();
  std::vector<int32_t> order = TakeVec();
  std::vector<int32_t> visit = TakeVec();

  for (int l = num_layers - 1; l >= 0; --l) {
    const int fanout = fanouts_[static_cast<size_t>(l)];
    const int64_t frontier = static_cast<int64_t>(cur.size());
    GraphBlock& block = out->blocks[static_cast<size_t>(l)];
    block.num_dst = frontier;
    block.adjacency.reserve(static_cast<size_t>(num_types));
    draw_scratch_.resize(static_cast<size_t>(num_types) *
                         static_cast<size_t>(frontier) *
                         static_cast<size_t>(fanout));
    draw_count_.resize(static_cast<size_t>(num_types) *
                       static_cast<size_t>(frontier));

    // Pass 1: resolve every frontier node's draws, visiting each shard
    // exactly once. Counting sort of the frontier by shard: shard_start
    // becomes the prefix table, order the member positions grouped by
    // shard.
    shard_of.resize(static_cast<size_t>(frontier));
    shard_start.assign(static_cast<size_t>(num_shards) + 1, 0);
    for (int64_t i = 0; i < frontier; ++i) {
      const int s = store_->ShardOf(cur[static_cast<size_t>(i)]);
      shard_of[static_cast<size_t>(i)] = s;
      ++shard_start[static_cast<size_t>(s) + 1];
    }
    for (int s = 0; s < num_shards; ++s) {
      shard_start[static_cast<size_t>(s) + 1] +=
          shard_start[static_cast<size_t>(s)];
    }
    order.resize(static_cast<size_t>(frontier));
    {
      std::vector<int32_t> cursor = TakeVec();
      cursor.assign(shard_start.begin(), shard_start.end() - 1);
      for (int64_t i = 0; i < frontier; ++i) {
        const int s = shard_of[static_cast<size_t>(i)];
        order[static_cast<size_t>(cursor[static_cast<size_t>(s)]++)] =
            static_cast<int32_t>(i);
      }
      Recycle(std::move(cursor));
    }
    // The shards with members, ascending on odd layers and descending on
    // even ones, so each layer starts on the shards the previous one left
    // resident. Draws write per-node slots, so the visit order and the
    // lanes the store runs the visits on cannot change them.
    visit.clear();
    for (int s = 0; s < num_shards; ++s) {
      if (shard_start[static_cast<size_t>(s) + 1] >
          shard_start[static_cast<size_t>(s)]) {
        visit.push_back(s);
      }
    }
    if (l % 2 == 0) std::reverse(visit.begin(), visit.end());
    store_->ForEachShard(visit, [&](int64_t v, const GraphShard& shard) {
      const int s = visit[static_cast<size_t>(v)];
      for (int32_t pos = shard_start[static_cast<size_t>(s)];
           pos < shard_start[static_cast<size_t>(s) + 1]; ++pos) {
        const int64_t i = order[static_cast<size_t>(pos)];
        SampleNode(shard, l, frontier, i, cur[static_cast<size_t>(i)],
                   nonce);
      }
    });

    // Pass 2: assemble the block in canonical (type, destination, draw)
    // order. Local ids: destinations first (in `cur` order), then drawn
    // neighbors in first-touch order — independent of how pass 1 grouped
    // the work.
    std::vector<int32_t> src = TakeVec();
    src.assign(cur.begin(), cur.end());
    for (size_t i = 0; i < cur.size(); ++i) {
      int32_t& slot = local_id_[static_cast<size_t>(cur[i])];
      GRIMP_CHECK_EQ(slot, -1);  // seeds / frontier must be distinct
      slot = static_cast<int32_t>(i);
    }
    for (int t = 0; t < num_types; ++t) {
      std::vector<int32_t> offsets = TakeVec();
      offsets.push_back(0);
      std::vector<int32_t> indices = TakeVec();
      const int32_t* draws =
          draw_scratch_.data() + static_cast<int64_t>(t) * frontier * fanout;
      const int32_t* counts = draw_count_.data() +
                              static_cast<int64_t>(t) * frontier;
      for (int64_t i = 0; i < frontier; ++i) {
        const int32_t count = counts[i];
        for (int32_t k = 0; k < count; ++k) {
          const int32_t global = draws[i * fanout + k];
          int32_t& slot = local_id_[static_cast<size_t>(global)];
          if (slot < 0) {
            slot = static_cast<int32_t>(src.size());
            src.push_back(global);
          }
          indices.push_back(slot);
        }
        offsets.push_back(static_cast<int32_t>(indices.size()));
      }
      block.adjacency.push_back(
          CsrAdjacency::FromParts(std::move(offsets), std::move(indices)));
    }

    block.num_src = static_cast<int64_t>(src.size());
    // Clear the remap for the next layer (which re-registers the new
    // frontier) or for the next Sample call.
    for (int32_t g : src) local_id_[static_cast<size_t>(g)] = -1;
    std::swap(cur, src);
    Recycle(std::move(src));  // the previous frontier's storage
  }

  Recycle(std::move(shard_of));
  Recycle(std::move(shard_start));
  Recycle(std::move(order));
  Recycle(std::move(visit));
  out->input_nodes = std::move(cur);
}

}  // namespace grimp
