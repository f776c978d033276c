#ifndef GRIMP_CORE_TRAINER_H_
#define GRIMP_CORE_TRAINER_H_

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/batch.h"
#include "core/options.h"
#include "core/tasks.h"
#include "gnn/hetero_sage.h"
#include "graph/hetero_graph.h"
#include "graph/sampler.h"
#include "graph/store.h"
#include "tensor/nn.h"

namespace grimp {

class Adam;

// One imputation task's training inputs, precomputed by the caller before
// the epoch loop starts: gather indices into the shared representation
// (|samples| * num_cols node ids, -1 == masked cell) plus, depending on
// `categorical`, class labels or normalized regression targets. The head
// is borrowed and must outlive the Trainer.
struct TrainTask {
  bool categorical = true;
  TaskHead* head = nullptr;

  std::vector<int32_t> train_idx;
  std::vector<int32_t> train_labels;
  std::vector<float> train_targets;
  std::vector<int32_t> val_idx;
  std::vector<int32_t> val_labels;
  std::vector<float> val_targets;

  int64_t NumTrain() const {
    return static_cast<int64_t>(train_labels.size() + train_targets.size());
  }
  int64_t NumVal() const {
    return static_cast<int64_t>(val_labels.size() + val_targets.size());
  }
};

// Full mode's gradient reduce: adds every task's gradient with respect to
// the shared representation h into h_grad. It is an inverted index of the
// tasks' training gather indices by h row (rows of the read set, see
// Trainer), built once per Run, with each
// row's entries in (task descending, position ascending) order: the order
// in which one shared tape's per-task GatherRows backward passes added
// them, so every row's sum has that tape's bits. Rows are shared value
// nodes (one value's node is read by every cell holding it), so a few rows
// carry thousands of entries. Rows are cut into chunks of about equal entry
// count that run as one grain-1 ParallelFor; a chunk owns its rows, and
// the cut moves no bits.
class TaskGradReduce {
 public:
  // One task's gradient source, null for a task without training samples:
  // a linear head's dense input gradient (GatherTaskRows' shape) or an
  // attention head's detached factors (AttentionScratch).
  struct Source {
    const Tensor* dense = nullptr;
    const AttentionScratch* attention = nullptr;
  };

  // Indexes every task's training gather indices (one list per task) over
  // h's `num_rows` rows.
  void Build(std::span<const std::vector<int32_t>> train_idx,
             int64_t num_rows, int num_cols);
  // *h_grad += every task's gradient, one Source per task: one
  // simd attention_input_grad call per row (per 64 entries) over all of
  // that row's entries, which rebuilds each attention block's gradient in
  // place and adds dense rows as they are.
  void Run(const std::vector<Source>& sources, Tensor* h_grad) const;

  struct Entry {
    int32_t task;
    int32_t pos;  // index into the task's train_idx
  };
  // Row r's entries are entries()[offsets()[r], offsets()[r + 1]).
  const std::vector<int32_t>& offsets() const { return offsets_; }
  std::span<const Entry> entries() const {
    return {entries_.get(), num_entries_};
  }

 private:
  int num_cols_ = 1;
  std::vector<int32_t> offsets_;  // row r's entries: [offsets_[r], [r + 1])
  std::unique_ptr<Entry[]> entries_;
  size_t num_entries_ = 0;
  std::vector<int32_t> chunks_;  // chunk k: rows [chunks_[k], chunks_[k + 1])
};

// The read set of full-mode passes: sets *read_rows to the ascending nodes
// (below num_nodes) some task's train_idx or val_idx names, and *read_idx
// to every task's indices as positions in it (CompactToReadRows' rule):
// (*read_idx)[t] is task t's train_idx, (*read_idx)[#tasks + t] its
// val_idx. The tasks' lists move into *read_idx and are remapped there,
// leaving them empty.
void BuildReadSet(std::span<TrainTask> tasks, int64_t num_nodes,
                  std::vector<int32_t>* read_rows,
                  std::vector<std::vector<int32_t>>* read_idx);

// Summary of one Trainer::Run: sample counts are the trained/validated
// counts of the tasks' lists (the corpus, after any max_samples_per_task
// cap), train_seconds covers Run() only, and steps_run counts optimizer
// steps (== epochs_run in full mode, #batches * epochs in sampled mode).
struct TrainSummary {
  TrainMode mode = TrainMode::kFull;
  int epochs_run = 0;
  int64_t steps_run = 0;
  double best_val_loss = 0.0;
  double final_train_loss = 0.0;
  double train_seconds = 0.0;
  int64_t num_parameters = 0;
  int64_t num_train_samples = 0;
  int64_t num_val_samples = 0;
};

// The epoch machinery behind GrimpEngine's fit body (Fit and FitImpute)
// and Resume (paper Alg. 1): Adam over the GNN + shared MLP + task heads, summed task
// losses, early stopping on the summed validation loss, best-weights
// restore, per-epoch metrics series and callbacks.
//
// One validation rule: each mode keeps the weights it scored. An epoch
// whose summed validation loss improves on the best so far (by more than
// 1e-6) copies the weights that loss was computed from, and Run restores
// the last copy, so scoring the restored weights with the mode's own
// validation pass gives exactly TrainSummary::best_val_loss.
//
// Two modes (GrimpOptions::train):
//  - kFull (default): one whole-graph forward per epoch; every training
//    sample reads the same node embeddings. The forward computes the GNN's
//    last layer and the shared MLP only for the read set, the nodes some
//    task's train_idx or val_idx names (BuildReadSet, which remaps the
//    tasks' own lists onto it; CompactToReadRows,
//    ForwardReadRows); the heads and the reduce index that compact
//    representation, with bit-identical results. Given that shared
//    representation the tasks are independent, so each task's head, loss,
//    head backward and validation head run on their own sub-tape, all
//    tasks as one grain-1 ParallelFor on the thread pool. The validation
//    heads score the weights before the epoch's optimizer step, so an
//    improving epoch copies them before that step. An attention head reads
//    its blocks straight from the representation and leaves compact
//    factors; a linear head takes a gathered copy. TaskGradReduce then adds
//    every task's gradient into the shared one, row-parallel in the order
//    a single shared tape would have, and the calling thread
//    backpropagates it once through the GNN and shared MLP. Losses and
//    weights are bit-identical at every thread count. Requires a store
//    with a full graph (in-memory).
//  - kSampled: iterates per-task minibatches of `batch_size` samples; each
//    step samples the batch's receptive field with NeighborSampler
//    (TrainConfig::fanouts), runs the GNN only over those blocks, and takes
//    one optimizer step. After the epoch's steps, validation is itself
//    minibatched through the sampler, on every store, over fixed
//    (seed, task, batch) streams that do not depend on the epoch, so
//    per-step memory stays bounded by the batch (and the shard budget).
//    Every store trains on the same corpus and draws the same blocks, so
//    training losses, validation losses, early stopping and the restored
//    weights are bit-identical across stores. Training and validation are
//    one pass over per-task batch plans that runs backward and the
//    optimizer step only when training. Training Rng streams derive from
//    (seed, epoch, batch id) — never from thread count or scheduling — so
//    losses are identical at every GRIMP_NUM_THREADS and every pipeline
//    depth. Batches are prepared in groups of TrainConfig::pipeline_depth
//    consecutive plans (PrepareGroup): one PrepareSampledBatches call
//    samples the whole group with one shard visit per layer, then the step
//    loop runs through it in plan order, gathering each batch's input
//    features as its forward starts. Depths 0 and 1 prepare one batch at a
//    time.
//
// The Trainer reads the graph exclusively through a GraphStore: an
// in-memory store reproduces the old behavior exactly, a ShardedGraphStore
// streams shard files through an LRU-bounded resident set (the sampler
// visits each layer's shard frontier on the thread pool).
//
// The Trainer borrows everything it is given; it owns only the optimizer
// state for the duration of Run().
class Trainer {
 public:
  // `gnn` may be null iff options.use_gnn is false. `node_features` is the
  // num_nodes x dim pre-trained feature matrix; `num_cols` the number of
  // gather blocks per training vector. `store` must outlive the Trainer;
  // full mode requires store->full_graph() != nullptr.
  Trainer(const GrimpOptions& options, const GraphStore* store,
          const Tensor* node_features, HeteroGnn* gnn, Mlp* shared,
          std::vector<TrainTask> tasks, int num_cols);

  // Runs the epoch loop to completion (max_epochs, early stopping, or a
  // callback returning false). Invokes callbacks.on_epoch_end once per
  // executed epoch. Returns the run summary; a run with nothing to train
  // on returns epochs_run == 0 without error. Single-shot: full mode
  // moves the tasks' lists into the read set, so a second Run on the
  // same Trainer is a checked error.
  //
  // `warm_start` (online fine-tuning, sampled mode only): before the first
  // epoch, the incoming weights are scored with the validation pass and
  // kept like an epoch's, so the run can never end with weights worse (by
  // validation loss) than the ones it started from.
  Result<TrainSummary> Run(const TrainCallbacks& callbacks,
                           bool warm_start = false);

 private:
  struct EpochResult {
    double train_loss = 0.0;
    bool trained = false;  // at least one optimizer step ran
    double val_loss = 0.0;  // summed validation loss, when has_val
    bool has_val = false;
    bool improved = false;  // val_loss was kept as the best (KeepIfBest)
  };

  // When `val_loss` improves on the best so far by more than 1e-6, copies
  // the current weights into best_params_, records the loss and returns
  // true.
  bool KeepIfBest(double val_loss);
  // One full-graph training epoch: the shared forward on tape_ over the
  // read set (ForwardReadRows, one row per entry of read_rows_), every
  // task's head in RunTaskHeads, the shared backward from the reduced
  // gradient, then the optimizer step. The validation loss the heads
  // computed from the same representation scores the pre-step weights,
  // which KeepIfBest copies before the step.
  EpochResult RunFullEpoch(Adam* opt);

  // One task's head pass, on its own sub-tape.
  struct HeadRun {
    Tape tape;
    // The head as an attention head, or null: it then takes a gathered
    // copy of its rows.
    const AttentionTaskHead* attention = nullptr;
    Tape::VarId train_in = -1;  // a gathered training input
    // An attention head's nodes: the training one's factors, which the
    // reduce reads, and the validation one's weights.
    AttentionScratch train_factors;
    AttentionScratch val_scratch;
    float train_loss = 0.0f;
    float val_loss = 0.0f;
  };
  struct HeadLosses {
    float train_loss = 0.0f;  // float sum over trained tasks, ascending
    bool trained = false;     // some task has training samples
    double val_loss = 0.0;    // double sum over validated tasks, ascending
    bool has_val = false;
    double reduce_seconds = 0.0;  // TaskGradReduce + sub-tape resets
  };
  // Task t's head over the read-set representation `h` on
  // head_runs_[t].tape: head + loss + BackwardFrom the loss on its training
  // samples, then head + loss on its validation samples. Runs on pool
  // threads; touches only task t's head, sub-tape and scratches, which its
  // own ops size.
  void RunTaskHead(size_t t, const Tensor& h);
  // Every task's RunTaskHead as one grain-1 ParallelFor (on this thread
  // for the first pass, which sizes the sub-tapes). Then grad_reduce_ adds
  // each task's input gradient into *h_grad, and the sub-tapes are reset.
  // Losses are bit-identical at every thread count.
  HeadLosses RunTaskHeads(const Tensor& h, Tensor* h_grad);
  // One sampled pass over per-task minibatches, returning the summed
  // per-task mean loss; *ran is set when at least one batch ran. With `opt`
  // it trains — one optimizer step per batch, streams keyed on (seed,
  // epoch, batch id). Without, it validates: streams are fixed per (task,
  // batch) — never per epoch — so successive epochs score the same sampled
  // receptive fields and early stopping compares like with like; `epoch`
  // is then unused.
  double RunSampledPass(int epoch, Adam* opt, bool* ran);

  // One sampled batch's fixed recipe, laid out before the pass starts so
  // preparation is a pure function of the batch id, whatever group it
  // falls in: which task, which sample range, and the fully mixed RNG seed
  // of the batch's sampling stream.
  struct BatchPlan {
    int task = 0;
    int64_t start = 0;
    int64_t bn = 0;
    uint64_t seed = 0;
  };

  // Prepares plans_[begin, end) into slots_[0, end - begin): slices each
  // batch's labels or targets, then one PrepareSampledBatches call samples
  // the whole group jointly on scratch_.
  void PrepareGroup(int64_t begin, int64_t end, bool validation);

  const GrimpOptions& options_;
  const GraphStore* store_;
  const Tensor* node_features_;
  HeteroGnn* gnn_;
  Mlp* shared_;
  std::vector<TrainTask> tasks_;
  int num_cols_;
  // Per-task head sub-tapes (RunTaskHeads), reset after every reduce so
  // their node slots are reused from epoch to epoch, and whether a pass
  // has sized them.
  std::vector<HeadRun> head_runs_;
  bool heads_sized_ = false;
  bool ran_ = false;  // Run is single-shot
  // Full mode's read set, built by Run: the ascending h rows some task's
  // train_idx or val_idx reads, and the tasks' own lists moved here and
  // remapped onto them (CompactToReadRows): read_idx_[t] is task t's
  // train_idx, read_idx_[#tasks + t] its val_idx.
  std::vector<int32_t> read_rows_;
  std::vector<std::vector<int32_t>> read_idx_;
  // Full mode: the reduce, built by Run, its per-task sources, and
  // the shared representation's gradient it reduces into.
  TaskGradReduce grad_reduce_;
  std::vector<TaskGradReduce::Source> grad_sources_;
  Tensor h_grad_;
  std::vector<Parameter*> params_;
  // The best summed validation loss so far and the weights it scored
  // (KeepIfBest), empty until the first improvement.
  double best_val_ = std::numeric_limits<double>::infinity();
  std::vector<Tensor> best_params_;
  TrainSummary summary_;
  // Reused across every epoch / batch / validation pass (Tape::Reset keeps
  // the node slots; the GNN scratch keeps its per-type rows and buffers),
  // so steady-state steps run without tape or GNN allocations.
  Tape tape_;
  GnnScratch gnn_scratch_;
  AttentionScratch head_scratch_;  // sampled batches' attention node
  // Sampled-mode batch preparation, grown on the first sampled pass and
  // recycled after: one slot per batch of a group, one scratch and one spec
  // list, so steady-state steps perform no heap allocations. plans_ is
  // rebuilt per pass. The tape's borrowing overloads point into slot
  // storage, so tape_ is Reset before a group refills the slots.
  std::vector<PreparedBatch> slots_;
  std::unique_ptr<BatchScratch> scratch_;
  std::vector<SampledBatchSpec> specs_;
  std::vector<BatchPlan> plans_;
};

}  // namespace grimp

#endif  // GRIMP_CORE_TRAINER_H_
