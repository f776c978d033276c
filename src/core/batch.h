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
// streaming window inference (GrimpEngine's stream mode): a batch of task
// samples is reduced to its distinct cell nodes, their receptive field is
// sampled block by block, the field's input features are gathered, and the
// samples' gather index is remapped to block-local ids.

// Per-layer fanouts with the sampled-mode default (10 per layer) filled in
// when `fanouts` is empty.
std::vector<int> FanoutsOrDefault(std::vector<int> fanouts, int num_layers);

// One thread's batch-preparation scratch. A NeighborSampler must not run
// concurrent Sample calls (its dense remap and vector pool are
// per-instance state), so every preparing thread owns one. Scratch never
// influences sampled content: draws are keyed per (nonce, layer, type,
// node), so any scratch yields bit-identical batches.
struct BatchScratch {
  BatchScratch(const GraphStore* store, std::vector<int> fanouts);

  NeighborSampler sampler;
  // Dense node -> batch-local slot remap; all -1 between batches, grown to
  // the store's node count on demand.
  std::vector<int32_t> seed_local;
};

// One fully prepared minibatch: everything a training or inference step
// needs short of running the tape. All members are recycled storage — the
// vectors keep their capacity and the subgraph is refilled through
// NeighborSampler's scavenging overload, so steady-state preparation
// performs no heap allocations once capacities have grown to the largest
// batch seen (feats comes from the pooled tensor arena).
struct PreparedBatch {
  // The batch's distinct seed nodes in first-seen order (block local ids).
  std::vector<int32_t> seeds;
  // Sampled receptive field over the seeds.
  SampledSubgraph sub;
  // Input features gathered for sub.input_nodes (|input_nodes| x dim).
  Tensor feats;
  // Per-sample-cell local gather index into the block output (-1 == masked
  // cell), |batch| * num_cols entries.
  std::vector<int32_t> local_idx;
  // Task labels / regression targets for the batch's samples (training
  // only; one of the two is filled, matching the task's kind).
  std::vector<int32_t> labels;
  std::vector<float> targets;
};

// Prepares the batch whose samples gather `idx` (global node ids,
// num_cols per sample, -1 == masked cell) into *out's seeds, sub, feats
// and local_idx:
//  - seeds: the distinct non-masked nodes of `idx` in first-seen order (the
//    sampler requires distinct seeds; the order fixes the block's local
//    ids), or the dummy seed 0 when every cell is masked, so a batch of
//    fully-masked vectors still type-checks (its head sees zero vectors);
//  - sub: Sample under an Rng seeded with `rng_seed`;
//  - feats: GatherFeatureRows of sub.input_nodes;
//  - local_idx: `idx` remapped to the seeds' block-local ids.
// Records the "batch.sample" and "batch.gather" trace spans.
void PrepareSampledBatch(std::span<const int32_t> idx, uint64_t rng_seed,
                         const Tensor& node_features, BatchScratch* scratch,
                         PreparedBatch* out);

// Task head over rows of `h` (TaskHead::ForwardRows): |idx| / num_cols
// vectors of num_cols * dim. `idx` is borrowed and must stay alive until
// the tape is Reset, as must `scratch` (an attention head's state; null
// makes a tape-owned one).
Tape::VarId TaskHeadForward(Tape* tape, const TaskHead& head, Tape::VarId h,
                            const std::vector<int32_t>* idx, int num_cols,
                            int dim, AttentionScratch* scratch = nullptr);

// A linear head's input in full-mode training, in one copy: row i of the
// result is rows idx[i * num_cols .. (i + 1) * num_cols) of `h` laid side
// by side (|idx| / num_cols x num_cols * h.cols()), a zero block for each
// -1. The trainer's per-task head sub-tapes take it as a constant and add
// its gradient into the shared one in their indexed reduce.
Tensor GatherTaskRows(const Tensor& h, const std::vector<int32_t>& idx,
                      int num_cols);

// A prepared batch's forward: ForwardBlocks over batch->sub (masks in
// *gnn_scratch) -> shared MLP -> TaskHeadForward over batch->local_idx
// with *head_scratch. Moves batch->feats onto the tape and borrows the
// rest of *batch until the tape is Reset.
Tape::VarId ForwardBatch(Tape* tape, const HeteroGnn& gnn, const Mlp& shared,
                         const TaskHead& head, PreparedBatch* batch,
                         int num_cols, int dim, GnnScratch* gnn_scratch,
                         AttentionScratch* head_scratch);

// The whole-graph read rule shared by full-graph training passes (Trainer)
// and batch inference (GrimpEngine::ForwardRequests): a head reads only
// the representation rows its gather indices name — cell nodes, never a
// RID node — so the GNN's last layer and the shared MLP run over just
// those rows.
//
// Sets *rows to the ascending union of the non-negative entries of every
// list in `lists` (node ids below num_nodes) and rewrites each entry as its
// position in *rows; -1 (a masked cell) stays -1. `slot` is a dense node ->
// position scratch, all -1 between calls and grown on demand, so a
// recycled one makes repeated calls allocation-free.
void CompactToReadRows(std::span<std::vector<int32_t>> lists,
                       int64_t num_nodes, std::vector<int32_t>* rows,
                       std::vector<int32_t>* slot);

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

// Gathers rows `nodes` of `features` into a fresh arena-backed
// |nodes| x features.cols() matrix, chunked on the global pool (grain 512;
// rows are disjoint, so results are bit-identical at every thread count —
// and on a trainer preparation lane the chunks run inline).
Tensor GatherFeatureRows(const Tensor& features,
                         const std::vector<int32_t>& nodes);

}  // namespace grimp

#endif  // GRIMP_CORE_BATCH_H_
