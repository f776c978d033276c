#include "graph/sampler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace grimp {

namespace {

// Grows *v's capacity to at least n with 1/8 headroom, so a recycled array
// settles near the largest size its role has held instead of push_back's
// or resize's up-to-2x.
template <typename T>
void ReserveTight(std::vector<T>* v, size_t n) {
  if (v->capacity() < n) v->reserve(n + n / 8);
}

}  // namespace

NeighborSampler::NeighborSampler(const GraphStore* store,
                                 std::vector<int> fanouts)
    : store_(store), fanouts_(std::move(fanouts)) {
  GRIMP_CHECK(store_ != nullptr);
  GRIMP_CHECK(!fanouts_.empty());
  for (int fanout : fanouts_) GRIMP_CHECK_GT(fanout, 0);
}

SampledSubgraph NeighborSampler::Sample(const std::vector<int32_t>& seeds,
                                        Rng* rng) const {
  SampledSubgraph out;
  Sample(seeds, rng, &out);
  return out;
}

void NeighborSampler::Sample(const std::vector<int32_t>& seeds, Rng* rng,
                             SampledSubgraph* out) const {
  const Member member{&seeds, rng, out};
  SampleGroup({&member, 1});
}

void NeighborSampler::SampleNode(const GraphShard& shard, int layer,
                                 uint64_t nonce, int32_t node, int64_t size,
                                 int64_t i, int32_t* draws_base,
                                 int32_t* counts) const {
  const int fanout = fanouts_[static_cast<size_t>(layer)];
  const int num_types = shard.num_edge_types();
  for (int t = 0; t < num_types; ++t) {
    const auto [begin, end] = shard.Neighbors(t, node);
    const int degree = static_cast<int>(end - begin);
    int32_t* draws =
        draws_base + (static_cast<int64_t>(t) * size + i) * fanout;
    int32_t count;
    if (degree <= fanout) {
      for (int k = 0; k < degree; ++k) draws[k] = begin[k];
      count = degree;
    } else {
      // Partial Fisher-Yates: the first `fanout` entries of a uniformly
      // shuffled copy, i.e. a uniform sample without replacement, drawn
      // from this node's own stream. The stream is keyed on the member's
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
    counts[static_cast<int64_t>(t) * size + i] = count;
  }
}

void NeighborSampler::SampleGroup(std::span<const Member> group) const {
  const auto members = static_cast<int64_t>(group.size());
  if (members == 0) return;
  const int num_layers = static_cast<int>(fanouts_.size());
  const int num_types = store_->num_edge_types();
  const int num_shards = store_->num_shards();
  const int64_t num_nodes = store_->num_nodes();
  if (static_cast<int64_t>(local_id_.size()) < num_nodes) {
    local_id_.assign(static_cast<size_t>(num_nodes), -1);
  }

  // One nonce per member keeps successive Samples decorrelated while
  // leaving every per-node stream independent of traversal order. The
  // outermost layer's destinations are the seeds; each pass's source set
  // becomes the next (inner) pass's destination set.
  nonces_.resize(static_cast<size_t>(members));
  frontier_.clear();
  start_.assign(1, 0);
  for (int64_t m = 0; m < members; ++m) {
    const Member& member = group[static_cast<size_t>(m)];
    GRIMP_CHECK(member.out != nullptr);
    nonces_[static_cast<size_t>(m)] = member.rng->Next();
    SampledSubgraph& out = *member.out;
    if (static_cast<int>(out.blocks.size()) != num_layers) {
      out.blocks.resize(static_cast<size_t>(num_layers));
    }
    out.output_nodes = *member.seeds;  // copy-assign reuses capacity
    frontier_.insert(frontier_.end(), member.seeds->begin(),
                     member.seeds->end());
    start_.push_back(static_cast<int64_t>(frontier_.size()));
  }

  for (int l = num_layers - 1; l >= 0; --l) {
    const int fanout = fanouts_[static_cast<size_t>(l)];
    const int64_t total = static_cast<int64_t>(frontier_.size());
    // Pass 2 reads only slots pass 1 wrote, so the scratch only grows:
    // shrinking it would zero the tail again on the next layer.
    const size_t slots = static_cast<size_t>(num_types) *
                         static_cast<size_t>(total);
    const auto grow = [](std::vector<int32_t>* v, size_t n) {
      if (v->size() >= n) return;
      ReserveTight(v, n);
      v->resize(n);
    };
    grow(&draw_scratch_, slots * static_cast<size_t>(fanout));
    grow(&draw_count_, slots);

    // Pass 1: resolve every member's frontier draws, visiting each shard
    // exactly once. Counting sort of the frontier entries by (shard,
    // member): bucket_ becomes the prefix table, order_ the entries
    // grouped by key.
    const int64_t num_keys = static_cast<int64_t>(num_shards) * members;
    key_.resize(static_cast<size_t>(total));
    bucket_.assign(static_cast<size_t>(num_keys) + 1, 0);
    for (int64_t m = 0; m < members; ++m) {
      for (int64_t e = start_[static_cast<size_t>(m)];
           e < start_[static_cast<size_t>(m) + 1]; ++e) {
        const int32_t k = static_cast<int32_t>(
            store_->ShardOf(frontier_[static_cast<size_t>(e)]) * members + m);
        key_[static_cast<size_t>(e)] = k;
        ++bucket_[static_cast<size_t>(k) + 1];
      }
    }
    for (int64_t k = 0; k < num_keys; ++k) {
      bucket_[static_cast<size_t>(k) + 1] += bucket_[static_cast<size_t>(k)];
    }
    // Place each entry at its bucket's cursor, which walks bucket_[k] to
    // the next bucket's start; shifting the table up one slot restores it.
    order_.resize(static_cast<size_t>(total));
    for (int64_t e = 0; e < total; ++e) {
      order_[static_cast<size_t>(
          bucket_[static_cast<size_t>(key_[static_cast<size_t>(e)])]++)] =
          static_cast<int32_t>(e);
    }
    for (int64_t k = num_keys; k > 0; --k) {
      bucket_[static_cast<size_t>(k)] = bucket_[static_cast<size_t>(k) - 1];
    }
    bucket_[0] = 0;
    // The shards with members, ascending on odd layers and descending on
    // even ones, so each layer starts on the shards the previous one left
    // resident. Draws write per-node slots, so the visit order and the
    // lanes the store runs the visits on cannot change them.
    visit_.clear();
    for (int s = 0; s < num_shards; ++s) {
      if (bucket_[static_cast<size_t>((s + 1) * members)] >
          bucket_[static_cast<size_t>(s * members)]) {
        visit_.push_back(s);
      }
    }
    if (l % 2 == 0) std::reverse(visit_.begin(), visit_.end());
    store_->ForEachShard(visit_, [&](int64_t v, const GraphShard& shard) {
      const int64_t first_key = visit_[static_cast<size_t>(v)] * members;
      ParallelFor(0, members, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t m = lo; m < hi; ++m) {
          const int64_t base = start_[static_cast<size_t>(m)];
          const int64_t size = start_[static_cast<size_t>(m) + 1] - base;
          int32_t* draws = draw_scratch_.data() + base * num_types * fanout;
          int32_t* counts = draw_count_.data() + base * num_types;
          const auto k = static_cast<size_t>(first_key + m);
          for (int32_t pos = bucket_[k]; pos < bucket_[k + 1]; ++pos) {
            const int64_t e = order_[static_cast<size_t>(pos)];
            SampleNode(shard, l, nonces_[static_cast<size_t>(m)],
                       frontier_[static_cast<size_t>(e)], size, e - base,
                       draws, counts);
          }
        }
      });
    });

    // Pass 2, per member: assemble the block in canonical (type,
    // destination, draw) order. Local ids: destinations first (in frontier
    // order), then drawn neighbors in first-touch order — independent of
    // how pass 1 grouped the work. Each (layer, type) array of the block
    // is refilled in place.
    next_.clear();
    next_start_.assign(1, 0);
    for (int64_t m = 0; m < members; ++m) {
      const int64_t base = start_[static_cast<size_t>(m)];
      const int64_t size = start_[static_cast<size_t>(m) + 1] - base;
      const int32_t* cur = frontier_.data() + base;
      const auto src_base = static_cast<int64_t>(next_.size());
      GraphBlock& block =
          group[static_cast<size_t>(m)].out->blocks[static_cast<size_t>(l)];
      block.num_dst = size;
      block.adjacency.resize(static_cast<size_t>(num_types));
      next_.insert(next_.end(), cur, cur + size);
      for (int64_t i = 0; i < size; ++i) {
        int32_t& slot = local_id_[static_cast<size_t>(cur[i])];
        GRIMP_CHECK_EQ(slot, -1);  // seeds / frontier must be distinct
        slot = static_cast<int32_t>(i);
      }
      for (int t = 0; t < num_types; ++t) {
        std::vector<int32_t> offsets;
        std::vector<int32_t> indices;
        block.adjacency[static_cast<size_t>(t)].ReleaseParts(&offsets,
                                                             &indices);
        const int32_t* draws = draw_scratch_.data() +
                               (base * num_types + t * size) * fanout;
        const int32_t* counts =
            draw_count_.data() + base * num_types + t * size;
        size_t drawn = 0;
        for (int64_t i = 0; i < size; ++i) drawn += counts[i];
        ReserveTight(&offsets, static_cast<size_t>(size) + 1);
        ReserveTight(&indices, drawn);
        offsets.assign(1, 0);
        indices.clear();
        for (int64_t i = 0; i < size; ++i) {
          for (int32_t k = 0; k < counts[i]; ++k) {
            const int32_t global = draws[i * fanout + k];
            int32_t& slot = local_id_[static_cast<size_t>(global)];
            if (slot < 0) {
              slot = static_cast<int32_t>(
                  static_cast<int64_t>(next_.size()) - src_base);
              next_.push_back(global);
            }
            indices.push_back(slot);
          }
          offsets.push_back(static_cast<int32_t>(indices.size()));
        }
        block.adjacency[static_cast<size_t>(t)] =
            CsrAdjacency::FromParts(std::move(offsets), std::move(indices));
      }
      block.num_src = static_cast<int64_t>(next_.size()) - src_base;
      // Clear the remap for the next member or layer.
      for (size_t j = static_cast<size_t>(src_base); j < next_.size(); ++j) {
        local_id_[static_cast<size_t>(next_[j])] = -1;
      }
      next_start_.push_back(static_cast<int64_t>(next_.size()));
    }
    std::swap(frontier_, next_);
    std::swap(start_, next_start_);
  }

  for (int64_t m = 0; m < members; ++m) {
    group[static_cast<size_t>(m)].out->input_nodes.assign(
        frontier_.begin() + start_[static_cast<size_t>(m)],
        frontier_.begin() + start_[static_cast<size_t>(m) + 1]);
  }
}

}  // namespace grimp
