#include "core/batch.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace grimp {

namespace {

constexpr int kDefaultFanout = 10;

}  // namespace

std::vector<int> FanoutsOrDefault(std::vector<int> fanouts, int num_layers) {
  if (fanouts.empty()) {
    fanouts.assign(static_cast<size_t>(num_layers), kDefaultFanout);
  }
  return fanouts;
}

BatchScratch::BatchScratch(const GraphStore* store, std::vector<int> fanouts)
    : sampler(store, std::move(fanouts)) {}

void PrepareSampledBatches(std::span<const SampledBatchSpec> specs,
                           BatchScratch* scratch, PreparedBatch* out) {
  std::vector<int32_t>& seed_local = scratch->seed_local;
  const int64_t num_nodes = scratch->sampler.store().num_nodes();
  if (static_cast<int64_t>(seed_local.size()) < num_nodes) {
    seed_local.assign(static_cast<size_t>(num_nodes), -1);
  }

  TraceSpan sample_span("batch.sample");
  scratch->rngs.clear();
  scratch->rngs.reserve(specs.size());  // members point into it
  scratch->members.clear();
  for (size_t b = 0; b < specs.size(); ++b) {
    const std::span<const int32_t> idx = specs[b].idx;
    PreparedBatch& batch = out[b];
    batch.seeds.clear();
    for (const int32_t node : idx) {
      if (node < 0) continue;
      int32_t& slot = seed_local[static_cast<size_t>(node)];
      if (slot < 0) {
        slot = static_cast<int32_t>(batch.seeds.size());
        batch.seeds.push_back(node);
      }
    }
    batch.local_idx.resize(idx.size());
    for (size_t i = 0; i < idx.size(); ++i) {
      batch.local_idx[i] =
          idx[i] < 0 ? -1 : seed_local[static_cast<size_t>(idx[i])];
    }
    // Restore the all -1 remap for the next batch.
    for (const int32_t node : batch.seeds) {
      seed_local[static_cast<size_t>(node)] = -1;
    }
    if (batch.seeds.empty()) batch.seeds.push_back(0);
    Rng& rng = scratch->rngs.emplace_back(specs[b].rng_seed);
    scratch->members.push_back({&batch.seeds, &rng, &batch.sub});
  }
  scratch->sampler.SampleGroup(scratch->members);
}

Tape::VarId TaskHeadForward(Tape* tape, const TaskHead& head, Tape::VarId h,
                            const std::vector<int32_t>* idx, int num_cols,
                            int dim, AttentionScratch* scratch) {
  GRIMP_CHECK_EQ(tape->value(h).cols(), dim);
  return head.ForwardRows(tape, h, idx, num_cols, scratch);
}

void GatherTaskRows(const Tensor& h, const std::vector<int32_t>& idx,
                    int num_cols, Tensor* out) {
  const int64_t dim = h.cols();
  const auto cells = static_cast<int64_t>(idx.size());
  out->ResizeUninit(cells / num_cols, num_cols * dim);
  ParallelFor(0, cells, 512, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const int32_t r = idx[static_cast<size_t>(i)];
      float* dst = out->data() + i * dim;
      if (r < 0) {
        std::fill(dst, dst + dim, 0.0f);
      } else {
        const float* src = h.data() + static_cast<int64_t>(r) * dim;
        std::copy(src, src + dim, dst);
      }
    }
  });
}

Tape::VarId ForwardBatch(Tape* tape, const HeteroGnn& gnn, const Mlp& shared,
                         const TaskHead& head, const Tensor& node_features,
                         const PreparedBatch& batch, int num_cols, int dim,
                         GnnScratch* gnn_scratch,
                         AttentionScratch* head_scratch) {
  TraceSpan gather_span("batch.gather");
  Tape::VarId feats;
  GatherFeatureRows(node_features, batch.sub.input_nodes,
                    tape->ConstantInPlace(&feats));
  gather_span.Stop();
  Tape::VarId h = gnn.ForwardBlocks(tape, feats, batch.sub, gnn_scratch);
  return TaskHeadForward(tape, head, shared.Forward(tape, h),
                         &batch.local_idx, num_cols, dim, head_scratch);
}

void CompactToReadRows(std::span<const std::vector<int32_t>* const> lists,
                       int64_t num_nodes, std::vector<int32_t>* rows,
                       std::span<std::vector<int32_t>> positions,
                       ReadRowScratch* scratch) {
  GRIMP_CHECK_EQ(lists.size(), positions.size());
  // Node v's entry is slot[v + 1]; slot[0] answers a masked cell (-1), so
  // neither pass below branches on it.
  std::vector<int32_t>& slot = scratch->slot;
  if (slot.size() < static_cast<size_t>(num_nodes) + 1) {
    slot.resize(static_cast<size_t>(num_nodes) + 1, -1);
  }
  // The lists laid end to end, walked in chunks on the pool.
  std::vector<int64_t>& starts = scratch->starts;
  starts.assign(lists.size() + 1, 0);
  for (size_t l = 0; l < lists.size(); ++l) {
    starts[l + 1] = starts[l] + static_cast<int64_t>(lists[l]->size());
    positions[l].resize(lists[l]->size());
  }
  const auto for_each_list_run = [&](auto&& visit) {
    ParallelFor(0, starts.back(), 8192, [&](int64_t lo, int64_t hi) {
      auto l = static_cast<size_t>(
          std::upper_bound(starts.begin(), starts.end(), lo) -
          starts.begin() - 1);
      for (int64_t e = lo; e < hi; ++l) {
        const int64_t end = std::min(hi, starts[l + 1]);
        visit(l, static_cast<size_t>(e - starts[l]),
              static_cast<size_t>(end - starts[l]));
        e = end;
      }
    });
  };
  // Mark every read node. Lanes may mark one node together; a lane stores
  // only into an unmarked slot, so the few hot value nodes are read, not
  // written, by every lane.
  for_each_list_run([&](size_t l, size_t begin, size_t end) {
    const int32_t* list = lists[l]->data();
    for (size_t i = begin; i < end; ++i) {
      const int32_t v = list[i];
      GRIMP_CHECK(v >= -1 && v < num_nodes);
      std::atomic_ref<int32_t> mark(slot[static_cast<size_t>(v + 1)]);
      if (mark.load(std::memory_order_relaxed) < 0) {
        mark.store(0, std::memory_order_relaxed);
      }
    }
  });
  // Numbering the marked nodes in node order lists them ascending.
  slot[0] = -1;
  rows->clear();
  for (int64_t v = 0; v < num_nodes; ++v) {
    int32_t& pos = slot[static_cast<size_t>(v + 1)];
    if (pos < 0) continue;
    pos = static_cast<int32_t>(rows->size());
    rows->push_back(static_cast<int32_t>(v));
  }
  for_each_list_run([&](size_t l, size_t begin, size_t end) {
    const int32_t* list = lists[l]->data();
    int32_t* out = positions[l].data();
    for (size_t i = begin; i < end; ++i) {
      out[i] = slot[static_cast<size_t>(list[i] + 1)];
    }
  });
  for (const int32_t v : *rows) slot[static_cast<size_t>(v + 1)] = -1;
}

Tape::VarId ForwardReadRows(Tape* tape, const HeteroGnn* gnn,
                            const Mlp& shared, Tape::VarId features,
                            const HeteroGraph& graph,
                            const std::vector<int32_t>* rows,
                            GnnScratch* gnn_scratch) {
  const Tape::VarId h =
      gnn != nullptr ? gnn->Forward(tape, features, graph, gnn_scratch, rows)
                     : tape->GatherRows(features, rows);
  return shared.Forward(tape, h);
}

void GatherFeatureRows(const Tensor& features,
                       const std::vector<int32_t>& nodes, Tensor* out) {
  const int64_t dim = features.cols();
  out->ResizeUninit(static_cast<int64_t>(nodes.size()), dim);
  ParallelFor(0, static_cast<int64_t>(nodes.size()), 512,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  const float* src =
                      features.data() +
                      static_cast<int64_t>(nodes[static_cast<size_t>(i)]) *
                          dim;
                  std::copy(src, src + dim, out->data() + i * dim);
                }
              });
}

}  // namespace grimp
