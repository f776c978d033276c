#ifndef GRIMP_CORE_ENGINE_H_
#define GRIMP_CORE_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "core/options.h"
#include "core/task_index.h"
#include "core/tasks.h"
#include "core/trainer.h"
#include "embedding/feature_init.h"
#include "gnn/hetero_sage.h"
#include "graph/builder.h"
#include "graph/store.h"
#include "table/dictionary.h"
#include "table/normalizer.h"
#include "tensor/nn.h"

namespace grimp {

// Inference over caller-maintained live state (streaming ingestion): the
// StreamingEngine keeps a table, its segmented graph, a GraphStore over it
// and the matching n-gram feature matrix incrementally up to date, and asks
// the engine to impute a *window* of rows against that state with
// sampled-block inference — cost scales with the window's receptive field,
// not with the accumulated graph. All pointers are borrowed and must
// outlive the call.
struct StreamContext {
  const Table* table = nullptr;           // live table (full history)
  const TableGraph* tg = nullptr;         // segmented-layout graph over it
  const GraphStore* store = nullptr;      // store over tg->graph
  const Tensor* node_features = nullptr;  // features aligned with tg
  // The window: live rows [row_begin, row_begin + window_rows) — the single
  // table passed to TransformMany must hold copies of exactly those rows.
  int64_t row_begin = 0;
  // Per-layer sampling fanouts; empty = the engine's train.fanouts (or the
  // trainer's default fanout per GNN layer).
  std::vector<int> fanouts;
  // Sampling-stream nonce. The drawn blocks are a pure function of
  // (engine seed, nonce, task, graph, window) — never of how the graph was
  // maintained — so incremental and rebuilt state impute identically.
  uint64_t nonce = 0;
};

// Per-call knobs for GrimpEngine::TransformMany.
struct TransformOptions {
  // Null: batch mode (self-contained per-request graphs). Non-null:
  // streaming mode over the context's live graph.
  const StreamContext* stream = nullptr;
};

// Knobs for GrimpEngine::Resume (online fine-tuning over a live graph).
struct ResumeOptions {
  // Fine-tune on the last `window_rows` rows of the live table (0 = all).
  int64_t window_rows = 0;
  // Recency weighting: a present cell in a row `age` rows from the tail is
  // kept with probability 2^(-age / half_life_rows) (0 = keep every cell).
  double half_life_rows = 0.0;
  // Epoch budget for the fine-tune run (<= 0 inherits the fitted options'
  // max_epochs, which is usually far too many for an online step).
  int max_epochs = 5;
  // Learning rate override (<= 0 inherits the fitted options').
  float learning_rate = 0.0f;
  // Distinguishes successive fine-tune rounds: sample selection and
  // sampling streams derive from (engine seed, nonce), so re-running a
  // round is reproducible and distinct rounds see distinct subsets.
  uint64_t nonce = 0;
};

// The one GRIMP model path; Fit and FitImpute share one fit body.
//
// Inductive (paper §3.4 "GNN based representations are inductive... which
// allows them to be used for imputing tuples that were unseen during
// training", and §7 future work): Fit() trains on a source table, and
// TransformMany() rebuilds the graph and node features for *any*
// schema-compatible table (same column names and types) and imputes it
// with the trained weights. The GraphSAGE submodules are keyed by
// attribute and the hashed n-gram features give a value string the same
// vector on every table, so the learned message passing carries over.
// Fit, TransformMany, Save, Resume, AttentionSummary and CheckCompatible
// therefore require FeatureInitKind::kNgram (EmbDI/random features live
// in per-run bases) and multi_task, and answer a model outside those
// bounds with FailedPrecondition. Categorical predictions decode through
// the source table's domain.
//
// Transductive (paper §3.7, what GrimpImputer runs): FitImpute() trains
// on a dirty table and imputes that same table, so every feature kind and
// the multi_task=false ablation are valid. Sharded storage is not.
class GrimpEngine {
 public:
  explicit GrimpEngine(GrimpOptions options);

  GrimpEngine(const GrimpEngine&) = delete;
  GrimpEngine& operator=(const GrimpEngine&) = delete;

  // Self-supervised training on `source` (which may itself contain
  // missing values).
  Status Fit(const Table& source);

  // Trains on `dirty` exactly like Fit, then imputes a copy of it through
  // batch TransformMany's inference body, with the fit-time graph
  // (validation edges still removed) and features as its one request.
  // Sharded graph storage is rejected with FailedPrecondition.
  Result<Table> FitImpute(const Table& dirty);

  // Online fine-tuning (streaming ingestion): resumes training from the
  // current weights over a recency-weighted window of the live table,
  // reading the graph through the context's store with sampled minibatches
  // (train.mode is forced to kSampled). The Trainer warm-starts: the
  // current weights are scored with the sampled validation pass and kept
  // like an epoch's, so by construction the run can only improve the
  // validation loss, never regress it. Cells whose value was not in the
  // fitted source domain are skipped (the task heads have no class for
  // them). Unlike Fit, the window's validation cells keep their edges in
  // the live graph (the graph is shared, maintained state — rebuilding it
  // per round would defeat streaming), so the validation loss is
  // comparative, not a clean holdout. Returns the fine-tune run's summary (also stored in
  // summary()); a window with nothing to train on returns epochs_run == 0.
  // Not thread-safe against TransformMany/Save (like Fit).
  Result<TrainSummary> Resume(const StreamContext& ctx,
                              const ResumeOptions& resume);

  // The one inductive inference entry point: imputes every missing cell
  // of every table in place.
  //
  // Batch mode (options.stream == nullptr): each table becomes one
  // request with the graph and deterministic n-gram features a solo run
  // would build; the requests are stitched into a block-diagonal disjoint
  // union, and one tape/GNN/task forward imputes them all. Message passing
  // never crosses table boundaries and every kernel in the inference path
  // is row-independent, so result i is bit-identical to a solo call on
  // tables[i] — micro-batching amortizes cost without changing any answer.
  // FitImpute and AttentionSummary run the same body as one-request
  // unions.
  // All model reads happen before any table is written; on error no table
  // is modified. Per-thread scratch (the tape with its slots' buffers,
  // graph storage, GNN layer scratch, gather indices) is recycled across
  // calls, making the steady state allocation-free outside the response
  // itself.
  //
  // Streaming mode (options.stream != nullptr): `tables` must hold exactly
  // one table — a copy of the context's window rows — and inference runs
  // with sampled blocks over the context's live graph (see StreamContext),
  // one per task, through the same cell collector and decoder. A window
  // outside the live table is OutOfRange.
  // Imputations are written into that window table only; the live state
  // stays untouched (writing into the live table would perturb its
  // dictionaries and therefore the graph).
  //
  // Tables must not alias each other; schema mismatches fail the whole
  // call (use CheckCompatible to reject individual requests up front).
  //
  // Thread safety: only model state is shared (tape, graphs, features,
  // sampler and GNN layer scratch are per-call or per-thread, and the GNN
  // layers hold nothing but weights), so any number of calls may run
  // concurrently on one fitted engine, each bit-identical to a serial run.
  // That holds in both modes, including streaming calls sharing one
  // StreamContext (StreamingEngineTest.
  // ConcurrentStreamingTransformManyMatchesSerial). Fit/Save/Load/Resume
  // must not run concurrently with them.
  Status TransformMany(std::span<Table* const> tables,
                       const TransformOptions& options = {}) const;

  // Admission check for serving: OK iff the engine is fitted and `table`
  // matches the fitted schema. Never touches mutable state.
  Status CheckCompatible(const Table& table) const;

  // Model persistence: writes the fitted model (configuration, source
  // schema/domains/normalizer, and every trained weight) to a binary
  // file; Load restores an engine ready for TransformMany without
  // retraining. Load validates the decoded options (FD columns included)
  // and rejects invalid ones with InvalidArgument.
  Status Save(const std::string& path);
  static Result<std::unique_ptr<GrimpEngine>> Load(const std::string& path);

  // Attention introspection (§3.5's intuition that tasks learn attribute
  // relationships such as FDs): returns a C x C matrix whose row t is task
  // t's mean attention over the columns, averaged over every tuple of
  // `table` that has a missing cell in column t (zero rows for tasks with
  // nothing to impute or linear heads). Requires a fitted attention model.
  // `table` is a one-request batch TransformMany forward; only the heads
  // differ.
  Result<Tensor> AttentionSummary(const Table& table) const;

  bool fitted() const { return fitted_; }
  // Training summary of the last successful Fit() (see trainer.h); a
  // default-constructed summary before Fit (and after Load, which skips
  // training).
  const TrainSummary& summary() const { return summary_; }
  const GrimpOptions& options() const { return options_; }
  // Source schema captured at Fit time (empty before Fit/Load). The
  // serving layer uses it to build request rows by column name.
  const Schema& schema() const { return schema_; }

 private:
  struct TaskState {
    int col = -1;  // -1: the multi_task=false head over every column
    bool categorical = true;
    std::unique_ptr<TaskHead> head;
  };
  // One decoded imputation, applied only after every model read is done:
  // code >= 0 is a categorical code of the fitted source domain, otherwise
  // `value` is the numerical prediction.
  struct CellWrite {
    size_t table = 0;  // position in the TransformMany batch
    int64_t row = 0;
    int col = 0;
    int32_t code = -1;
    double value = 0.0;
  };
  // One inference call's requests, union graph, tape, per-task cells and
  // decisions (engine.cc).
  struct TransformScratch;

  // The fit body shared by Fit and FitImpute. Leaves the fit-time graph
  // and features in *tg and *features (FitImpute's one request).
  Status Train(const Table& source, TableGraph* tg,
               PretrainedFeatures* features);
  // FailedPrecondition unless the engine is fitted and its options allow
  // inductive use.
  Status CheckServable() const;
  Status CheckSchema(const Table& table) const;
  // Shared validation of the live state Resume and TransformStream read.
  Status CheckStreamContext(const StreamContext& ctx) const;
  // Streaming-mode body of TransformMany.
  Status TransformStream(Table* window, const StreamContext& ctx) const;
  // Builds gnn_/shared_/tasks_ from schema_, source_dicts_ and options_;
  // InvalidArgument when an FD names a column outside the schema.
  // `column_features` seeds the attention Q matrices (zeros when loading:
  // the stored weights overwrite them).
  Status ConstructModel(const Tensor& column_features, Rng* model_rng);
  void CollectParams(std::vector<Parameter*>* out);
  // Empty per-task training inputs bound to tasks_' heads.
  std::vector<TrainTask> MakeTrainTasks() const;
  // How this fit maps a cell to its task and label (BuildTrainTasks).
  TaskLabeling Labeling() const { return {class_offsets_, &normalizer_}; }

  // The inference body. Every inference call runs it: batch TransformMany
  // over one request per table, FitImpute and AttentionSummary over one
  // request, streaming TransformMany only its collector and decoder.
  //
  // Builds s->requests[i] for `table`: its graph and its n-gram features
  // with Fit's seed derivation.
  Status BuildRequest(const Table& table, size_t i,
                      TransformScratch* s) const;
  // The one whole-graph inference forward: stitches requests [0, n) into a
  // block-diagonal union, collects every missing cell of every request,
  // and runs the GNN and shared MLP under the trainer's read rule
  // (ForwardReadRows): it returns the representation of s->read_rows only,
  // with s->index.task_idx indexing those rows.
  Tape::VarId ForwardRequests(size_t n, TransformScratch* s) const;
  // ForwardRequests, then each task's head over its cells and DecodeTask.
  void ImputeRequests(size_t n, TransformScratch* s) const;
  // Starts a new cell collection: clears every task's cells and indices
  // and the decisions.
  void ResetCells(TransformScratch* s) const;
  // Decodes task t's scores (one row per collected cell) into
  // s->decisions: the argmax over the column's live source codes, or the
  // denormalized regression output. A cell whose domain has no live code
  // is skipped.
  void DecodeTask(size_t t, const Tensor& scores, TransformScratch* s) const;
  // Writes s->decisions into their tables (the batch's, in order): the
  // one cell-write path of FitImpute and both TransformMany forms.
  void ApplyDecisions(std::span<Table* const> tables,
                      TransformScratch* s) const;

  GrimpOptions options_;
  TrainSummary summary_;
  bool fitted_ = false;

  // Source-table context captured at Fit time.
  Schema schema_;
  std::vector<Dictionary> source_dicts_;
  Normalizer normalizer_;
  // multi_task=false: column c's classes in the shared head are
  // [class_offsets_[c], class_offsets_[c + 1]). Empty in multi-task mode.
  std::vector<int32_t> class_offsets_;

  // Trained components.
  HeteroGnn gnn_;
  Mlp shared_;
  std::vector<TaskState> tasks_;
};

}  // namespace grimp

#endif  // GRIMP_CORE_ENGINE_H_
