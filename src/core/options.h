#ifndef GRIMP_CORE_OPTIONS_H_
#define GRIMP_CORE_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "embedding/feature_init.h"
#include "graph/store.h"
#include "table/fd.h"

namespace grimp {

// Task-head flavor (paper §3.5 / Table 2).
enum class TaskKind { kLinear, kAttention };

// Strategies for the attention selection matrix K (paper Fig. 7).
enum class KStrategy {
  kDiagonal,        // all columns weighted equally
  kTargetColumn,    // only the task's own column
  kWeakDiagonal,    // target column strongest, others weak (paper default)
  kWeakDiagonalFd,  // weak diagonal + boost for FD-related columns
};

// How the Trainer walks the graph each epoch. Full mode runs one
// whole-graph forward per epoch (every training sample shares the node
// embeddings). Sampled mode iterates seeded minibatches of task samples
// and runs the GNN only over each batch's sampled receptive field
// (GraphSAGE-style layer-wise neighbor fanouts), bounding per-step cost by
// the batch instead of the graph.
enum class TrainMode { kFull, kSampled };

// Minibatch / neighbor-sampling configuration for the Trainer. Ignored in
// full mode (the default, which reproduces the paper's training exactly).
// Each mode validates on its own path and keeps the weights it scored:
// full mode scores the epoch's forward before its optimizer step; sampled
// mode scores the weights after the epoch's steps with minibatches over
// fixed (seed, task, batch) streams, the same on every store.
struct TrainConfig {
  TrainMode mode = TrainMode::kFull;
  // Task samples per optimizer step in sampled mode (must be > 0 there).
  int batch_size = 256;
  // Per-GNN-layer neighbor fanouts for sampled mode, fanouts[l] applying
  // to layer l. Empty selects the default of 10 per layer; otherwise the
  // size must equal gnn_layers and every entry must be > 0 (a fanout of 0
  // would silence message passing and is rejected by Validate()).
  std::vector<int> fanouts;
  // Batches prepared together, for sampled training only: each run of
  // this many consecutive batches is sampled jointly, with one shard visit
  // per GNN layer for the whole group (NeighborSampler::SampleGroup), then
  // stepped in order; each batch's input features are gathered as its step
  // starts. 0 and 1 prepare one batch at a time. Any depth produces
  // bit-identical losses and imputations because per-batch RNG streams are
  // keyed on (seed, epoch, batch), not on the group. Must lie in
  // [0, kMaxPipelineDepth]. The default is a constant, so memory does not
  // depend on the machine. A group slot holds only its batch's blocks and
  // indices; with its share of the sampler's draw scratch, each extra
  // batch of a group costs ~0.17 MB of heap on grimpbench train_sharded's
  // Fit (steady state, depth 4 against depth 1), where depth 4 runs epochs
  // ~1.2x faster than depth 1 and depth 8 is no faster than depth 4.
  int pipeline_depth = 4;
  // Group-size ceiling; past it, larger groups only add slot memory.
  static constexpr int kMaxPipelineDepth = 16;
};

// (All name/parse helpers for the enums above live in core/names.h.)

// Per-epoch training telemetry handed to TrainCallbacks::on_epoch_end and
// mirrored into the metrics registry as the series "grimp.epoch.train_loss",
// "grimp.epoch.val_loss" (when validation is enabled) and
// "grimp.epoch.seconds".
struct EpochStats {
  int epoch = 0;            // 0-based index of the epoch that just finished
  double train_loss = 0.0;  // summed task training loss for this epoch
  double val_loss = 0.0;    // summed validation loss (0 when has_val=false)
  bool has_val = false;     // whether val_loss is meaningful
  bool improved = false;    // val_loss improved on the best seen so far
  double seconds = 0.0;     // wall time of this epoch
};

// Observer hooks for a training run. on_epoch_end fires exactly once per
// executed epoch; returning false stops training after that epoch (early
// stopping and max_epochs still apply independently).
struct TrainCallbacks {
  std::function<bool(const EpochStats&)> on_epoch_end;
};

// Configuration of a GRIMP run. Defaults follow the paper's fixed setting
// (§4.1): attention tasks with weak-diagonal K, 300 epochs with early
// stopping, 2 GNN layers, 2 shared merge layers, 2 task linear layers.
// Dimensions default to a laptop-friendly scale; the paper's 64/128 can be
// requested explicitly.
struct GrimpOptions {
  FeatureInitKind features = FeatureInitKind::kNgram;
  TaskKind task_kind = TaskKind::kAttention;
  KStrategy k_strategy = KStrategy::kWeakDiagonal;

  // D: feature / GNN-output / shared-output dimension (one space, so the
  // pre-trained column vectors in Q live in the same space as the training
  // vector blocks, §3.5).
  int dim = 32;
  // Hidden width of the shared merging MLP (#P_Lin in the paper).
  int shared_hidden = 64;
  // Hidden width of linear task heads.
  int task_hidden = 64;
  int gnn_layers = 2;

  int max_epochs = 300;
  // Early stopping: stop after this many epochs without validation
  // improvement (paper: terminate when validation error increases).
  int patience = 12;
  double validation_fraction = 0.2;
  float learning_rate = 5e-3f;
  float grad_clip = 5.0f;
  // If > 0 use focal loss with this gamma for categorical tasks instead of
  // plain cross entropy (§3.6 mentions both).
  float focal_gamma = 0.0f;

  // Ablation switches (Fig. 10): with use_gnn=false the pre-trained
  // features bypass message passing; with multi_task=false a single
  // classifier over the whole table domain replaces the per-attribute
  // tasks (the GNN-MC / EmbDI-MC configurations).
  bool use_gnn = true;
  bool multi_task = true;

  // Training-data reduction (paper §7 future work): `max_samples_per_task`
  // caps each column's self-supervised samples, train plus validation, by
  // a uniform reservoir over its present cells, on any store
  // (BuildTrainingCorpus). 0 keeps every present cell; a sharded Fit with
  // 0 then holds the whole corpus in memory. With multi_task=false the cap
  // is still per column. The static graph-pruning knob lives in
  // `graph.neighbor_cap` below.
  int64_t max_samples_per_task = 0;

  // Graph storage & pruning (see graph/store.h GraphConfig): shard mode
  // (in-memory vs out-of-core sharded), the sharded resident budget, and
  // neighbor_cap static pruning. Sharded mode requires train.mode=sampled
  // and GrimpEngine::Fit (FitImpute's decode needs a full-graph
  // forward).
  GraphConfig graph;

  // Minibatch neighbor-sampled training (see TrainMode above).
  TrainConfig train;

  // Input FDs consumed by the kWeakDiagonalFd strategy (§4.3).
  std::vector<FunctionalDependency> fds;

  // Worker threads for the shared compute pool (GEMM + autograd kernels).
  // 0 = auto: GRIMP_NUM_THREADS env var, else hardware_concurrency. Results
  // are identical at every thread count (fixed chunking; see
  // common/thread_pool.h).
  int num_threads = 0;

  // SIMD tier of the tensor kernels: "auto" (CPUID-detected best,
  // downgradeable via the GRIMP_SIMD env var), "avx2", or "scalar".
  // Elementwise kernels are bit-identical across tiers; GEMM / softmax /
  // reductions may differ within AllClose rtol (see tensor/simd.h).
  std::string simd = "auto";

  uint64_t seed = 42;
  bool verbose = false;

  // Training observer; optional. Not serialized by GrimpEngine::Save.
  TrainCallbacks callbacks;

  // Checks every field for internal consistency (positive dimensions,
  // validation_fraction in [0, 1) where 0 disables validation, fds present
  // when k_strategy needs them, ...). Called by GrimpEngine::Fit,
  // FitImpute and Load before any work happens; returns InvalidArgument
  // with the offending field named. FD column ranges need the schema and
  // are checked when the model is built.
  Status Validate() const;
};

}  // namespace grimp

#endif  // GRIMP_CORE_OPTIONS_H_
