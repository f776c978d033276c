#ifndef GRIMP_CORE_BATCH_H_
#define GRIMP_CORE_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/tasks.h"
#include "gnn/hetero_sage.h"
#include "graph/sampler.h"
#include "graph/store.h"
#include "tensor/nn.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace grimp {

// The one sampled-batch path shared by minibatch training (Trainer) and
// streaming window inference (GrimpEngine's stream mode): each batch of a
// group of task-sample batches is reduced to its distinct cell nodes and
// its gather index remapped to block-local ids, the group's receptive
// fields are sampled together block by block, and each batch's input
// features are gathered when its forward runs.

// Per-layer fanouts with the sampled-mode default (10 per layer) filled in
// when `fanouts` is empty.
std::vector<int> FanoutsOrDefault(std::vector<int> fanouts, int num_layers);

// Batch-preparation scratch. A NeighborSampler must not run concurrent
// Sample calls (its remap and draw slots are per-instance state), so every
// preparing thread owns one. Scratch never influences sampled content:
// draws are keyed per (nonce, layer, type, node), so any scratch yields
// bit-identical batches.
struct BatchScratch {
  BatchScratch(const GraphStore* store, std::vector<int> fanouts);

  NeighborSampler sampler;
  // Dense node -> batch-local slot remap; all -1 between batches, grown to
  // the store's node count on demand.
  std::vector<int32_t> seed_local;
  // One sampling stream and one sampler member per batch of a group.
  std::vector<Rng> rngs;
  std::vector<NeighborSampler::Member> members;
};

// One fully prepared minibatch: everything a training or inference step
// needs short of gathering its input features and running the tape. All
// members are recycled storage — the vectors keep their capacity and the
// subgraph's arrays are refilled in place by NeighborSampler, so
// steady-state preparation performs no heap allocations once capacities
// have grown to the largest batch seen.
struct PreparedBatch {
  // The batch's distinct seed nodes in first-seen order (block local ids).
  std::vector<int32_t> seeds;
  // Sampled receptive field over the seeds.
  SampledSubgraph sub;
  // Per-sample-cell local gather index into the block output (-1 == masked
  // cell), |batch| * num_cols entries.
  std::vector<int32_t> local_idx;
  // Task labels / regression targets for the batch's samples (training
  // only; one of the two is filled, matching the task's kind).
  std::vector<int32_t> labels;
  std::vector<float> targets;
};

// One batch of a group: its samples' gather index (global node ids,
// num_cols per sample, -1 == masked cell) and the seed of its sampling
// stream.
struct SampledBatchSpec {
  std::span<const int32_t> idx;
  uint64_t rng_seed = 0;
};

// Prepares batch b of `specs` into out[b]'s seeds, sub and local_idx, for
// every b, with one joint NeighborSampler::SampleGroup (one shard visit
// per layer for the whole group):
//  - seeds: the distinct non-masked nodes of idx in first-seen order (the
//    sampler requires distinct seeds; the order fixes the block's local
//    ids), or the dummy seed 0 when every cell is masked, so a batch of
//    fully-masked vectors still type-checks (its head sees zero vectors);
//  - sub: sampled under an Rng seeded with rng_seed, bit-identical to the
//    batch's own Sample call;
//  - local_idx: idx remapped to the seeds' block-local ids.
// `out` holds at least specs.size() batches. Records one "batch.sample"
// trace span for the group.
void PrepareSampledBatches(std::span<const SampledBatchSpec> specs,
                           BatchScratch* scratch, PreparedBatch* out);

// Task head over rows of `h` (TaskHead::ForwardRows): |idx| / num_cols
// vectors of num_cols * dim. `idx` is borrowed and must stay alive until
// the tape is Reset, as must `scratch` (an attention head's state; null
// makes a tape-owned one).
Tape::VarId TaskHeadForward(Tape* tape, const TaskHead& head, Tape::VarId h,
                            const std::vector<int32_t>* idx, int num_cols,
                            int dim, AttentionScratch* scratch = nullptr);

// A linear head's input in full-mode training, in one copy into *out
// (resized, keeping its buffer): row i is rows idx[i * num_cols ..
// (i + 1) * num_cols) of `h` laid side by side (|idx| / num_cols x
// num_cols * h.cols()), a zero block for each -1. The trainer's per-task
// head sub-tapes write it into a constant's slot (Tape::ConstantInPlace)
// and add its gradient into the shared one in their indexed reduce.
void GatherTaskRows(const Tensor& h, const std::vector<int32_t>& idx,
                    int num_cols, Tensor* out);

// A prepared batch's forward: its input features gathered from
// `node_features` (GatherFeatureRows of sub.input_nodes, recorded as the
// "batch.gather" trace span) -> ForwardBlocks over batch.sub (masks in
// *gnn_scratch) -> shared MLP -> TaskHeadForward over batch.local_idx
// with *head_scratch. Borrows `batch` until the tape is Reset.
Tape::VarId ForwardBatch(Tape* tape, const HeteroGnn& gnn, const Mlp& shared,
                         const TaskHead& head, const Tensor& node_features,
                         const PreparedBatch& batch, int num_cols, int dim,
                         GnnScratch* gnn_scratch,
                         AttentionScratch* head_scratch);

// The whole-graph read rule shared by full-graph training passes (Trainer)
// and batch inference (GrimpEngine::ForwardRequests): a head reads only
// the representation rows its gather indices name — cell nodes, never a
// RID node — so the GNN's last layer and the shared MLP run over just
// those rows.
//
// Sets *rows to the ascending union of the non-negative entries of every
// list in `lists` (node ids below num_nodes) and positions[l] to list l's
// entries as positions in *rows; -1 (a masked cell) stays -1. A list may
// be its own positions vector. The nodes are marked, then numbered in node
// order, so the cost is the lists' entries (walked on the pool) plus the
// node range. A recycled scratch makes repeated calls allocation-free.
struct ReadRowScratch {
  // Node v -> position at [v + 1]; all -1 between calls.
  std::vector<int32_t> slot;
  std::vector<int64_t> starts;  // the lists' offsets laid end to end
};
void CompactToReadRows(std::span<const std::vector<int32_t>* const> lists,
                       int64_t num_nodes, std::vector<int32_t>* rows,
                       std::span<std::vector<int32_t>> positions,
                       ReadRowScratch* scratch);

// The whole-graph forward of the nodes `rows` (ascending ids, borrowed
// until the tape is Reset): the GNN with its last layer pruned to them
// (HeteroGnn::Forward's out_rows), or a GatherRows of `features` when
// `gnn` is null, then the shared MLP. Row i of the result, and every
// gradient the backward writes, equal node rows[i]'s in the unpruned
// forward bit for bit.
Tape::VarId ForwardReadRows(Tape* tape, const HeteroGnn* gnn,
                            const Mlp& shared, Tape::VarId features,
                            const HeteroGraph& graph,
                            const std::vector<int32_t>* rows,
                            GnnScratch* gnn_scratch);

// Gathers rows `nodes` of `features` into *out, resized to |nodes| x
// features.cols() (keeping its buffer), chunked on the global pool (grain
// 512; rows are disjoint, so results are bit-identical at every thread
// count).
void GatherFeatureRows(const Tensor& features,
                       const std::vector<int32_t>& nodes, Tensor* out);

}  // namespace grimp

#endif  // GRIMP_CORE_BATCH_H_
