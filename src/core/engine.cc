#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/binary_io.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "tensor/simd.h"
#include "common/trace.h"
#include "core/corpus.h"
#include "core/batch.h"
#include "core/task_index.h"
#include "embedding/ngram_init.h"
#include "graph/builder.h"
#include "graph/sampler.h"
#include "graph/store.h"

namespace grimp {

namespace {

// Salt separating streaming-inference sampling streams from training's.
constexpr uint64_t kStreamSalt = 0x73747265616dULL;  // "stream"
// Salt for Resume's sample selection / fine-tune streams.
constexpr uint64_t kResumeSalt = 0x726573756d65ULL;  // "resume"

// Log class priors for a categorical column's classifier head: rare values
// start correctly downweighted, which matters most when noise fragments
// the domain into many singletons (§4.2 noise experiment).
std::vector<float> LogPriorBias(const Dictionary& dict) {
  std::vector<float> bias(static_cast<size_t>(std::max(1, dict.size())),
                          0.0f);
  double total = 0.0;
  for (int32_t code = 0; code < dict.size(); ++code) {
    total += static_cast<double>(dict.CountOf(code));
  }
  if (total <= 0.0) return bias;
  for (int32_t code = 0; code < dict.size(); ++code) {
    const double p =
        (static_cast<double>(dict.CountOf(code)) + 0.5) / (total + 0.5);
    bias[static_cast<size_t>(code)] = static_cast<float>(std::log(p));
  }
  return bias;
}

// The one test of whether options allow inductive use (Fit, TransformMany,
// Save, ...): only deterministic string-hash features align across
// tables, and only per-column heads decode a foreign table's cells.
Status CheckInductive(const GrimpOptions& options) {
  if (options.features != FeatureInitKind::kNgram) {
    return Status::FailedPrecondition(
        "inductive GrimpEngine use requires kNgram features: only "
        "deterministic string-hash features align across tables (see "
        "engine.h; FitImpute accepts every feature kind)");
  }
  if (!options.multi_task) {
    return Status::FailedPrecondition(
        "inductive GrimpEngine use supports multi-task mode only "
        "(FitImpute also runs multi_task=false)");
  }
  return Status::OK();
}

}  // namespace

GrimpEngine::GrimpEngine(GrimpOptions options)
    : options_(std::move(options)) {
  if (options_.num_threads > 0) {
    ThreadPool::SetGlobalThreads(options_.num_threads);
  }
  ApplySimdChoice(options_.simd);
}

Status GrimpEngine::CheckSchema(const Table& table) const {
  if (table.num_cols() != schema_.num_fields()) {
    return Status::FailedPrecondition(
        "column count mismatch: fitted on " +
        std::to_string(schema_.num_fields()) + ", got " +
        std::to_string(table.num_cols()));
  }
  for (int c = 0; c < table.num_cols(); ++c) {
    const Field& fitted = schema_.field(c);
    const Field& given = table.schema().field(c);
    if (fitted.name != given.name || fitted.type != given.type) {
      return Status::FailedPrecondition("schema mismatch at column " +
                                        std::to_string(c) + " (" +
                                        fitted.name + " vs " + given.name +
                                        ")");
    }
  }
  return Status::OK();
}

Status GrimpEngine::CheckStreamContext(const StreamContext& ctx) const {
  if (ctx.table == nullptr || ctx.tg == nullptr || ctx.store == nullptr ||
      ctx.node_features == nullptr) {
    return Status::InvalidArgument(
        "StreamContext.table/tg/store/node_features must all be set");
  }
  if (!options_.use_gnn) {
    return Status::FailedPrecondition(
        "streaming inference and Resume run sampled blocks and require "
        "use_gnn");
  }
  GRIMP_RETURN_IF_ERROR(CheckSchema(*ctx.table));
  if (ctx.node_features->rows() != ctx.tg->graph.num_nodes() ||
      ctx.node_features->cols() != options_.dim) {
    return Status::InvalidArgument(
        "StreamContext.node_features shape does not match the live graph");
  }
  if (ctx.store->num_nodes() != ctx.tg->graph.num_nodes()) {
    return Status::InvalidArgument(
        "StreamContext.store has " + std::to_string(ctx.store->num_nodes()) +
        " nodes, the live graph " + std::to_string(ctx.tg->graph.num_nodes()));
  }
  if (ctx.store->num_edge_types() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "StreamContext.store has " +
        std::to_string(ctx.store->num_edge_types()) + " edge types, the "
        "model " + std::to_string(schema_.num_fields()));
  }
  if (!ctx.fanouts.empty() &&
      static_cast<int>(ctx.fanouts.size()) != options_.gnn_layers) {
    return Status::InvalidArgument(
        "StreamContext.fanouts has " + std::to_string(ctx.fanouts.size()) +
        " entries, the model " + std::to_string(options_.gnn_layers) +
        " GNN layers");
  }
  for (const int fanout : ctx.fanouts) {
    if (fanout <= 0) {
      return Status::InvalidArgument("StreamContext.fanouts entries must be "
                                     "> 0, got " + std::to_string(fanout));
    }
  }
  return Status::OK();
}

Status GrimpEngine::CheckServable() const {
  if (!fitted_) return Status::FailedPrecondition("Fit() has not been run");
  return CheckInductive(options_);
}

// Reusable state of one inference call. Batch TransformMany keeps one per
// thread: every container is cleared, never shrunk, and the tape keeps its
// slots' buffers, so once a serving thread has seen its largest batch the
// pass stops touching the allocator. Every other inference call uses a
// call-local one.
struct GrimpEngine::TransformScratch {
  struct Request {
    const Table* table = nullptr;
    TableGraph tg;
    PretrainedFeatures features;
    int64_t offset = 0;  // this request's first node id in the union
  };

  Tape tape;
  GraphBuilder::Scratch graph;
  std::vector<Request> requests;
  HeteroGraph union_graph;
  std::vector<CsrAdjacency> union_adj;  // recycled outer vector
  CsrAdjacency::Scratch union_csr;      // recycled offsets/indices storage
  GnnScratch gnn;
  // Every missing cell of the pass per task, in (request, row, column)
  // order, and the tasks' gather indices. The tape borrows the indices
  // (see GatherRows), so each task's vector stays alive until the next
  // Reset.
  ImputeIndex index;
  // The union nodes some task's indices read, ascending, and the dense
  // remap that finds them (CompactImputeIndex).
  std::vector<int32_t> read_rows;
  ReadRowScratch read_scratch;
  // Per-task attention head state (AttentionSummary reads its weights).
  std::vector<AttentionScratch> heads;

  // Deferred cell writes: every model read (CodeAt/IsMissing during index
  // building) happens before any table is mutated, which leaves the
  // inputs untouched if anything fails first.
  std::vector<CellWrite> decisions;
};

void GrimpEngine::ApplyDecisions(std::span<Table* const> tables,
                                 TransformScratch* s) const {
  GRIMP_TRACE_SPAN("grimp.apply");
  for (const CellWrite& cell : s->decisions) {
    Column& dst = tables[cell.table]->mutable_column(cell.col);
    if (cell.code < 0) {
      dst.SetNumerical(cell.row, cell.value);
    } else {
      dst.SetCategorical(
          cell.row,
          source_dicts_[static_cast<size_t>(cell.col)].ValueOf(cell.code));
    }
  }
}

Status GrimpEngine::BuildRequest(const Table& table, size_t i,
                                 TransformScratch* s) const {
  if (s->requests.size() <= i) s->requests.resize(i + 1);
  TransformScratch::Request& request = s->requests[i];
  request.table = &table;
  GraphBuildOptions graph_options;
  graph_options.max_neighbors_per_node = options_.graph.neighbor_cap;
  graph_options.seed = options_.seed;
  GRIMP_RETURN_IF_ERROR(GraphBuilder(graph_options)
                            .BuildInto(table, {}, &request.tg, &s->graph));
  // The n-gram seed must match Fit's: the second draw of
  // Rng(options.seed), after the corpus fork.
  Rng rng(options_.seed);
  rng.Fork();
  GRIMP_ASSIGN_OR_RETURN(
      request.features,
      NgramFeatureInit().Init(table, request.tg, options_.dim, rng.Next()));
  return Status::OK();
}

Tape::VarId GrimpEngine::ForwardRequests(size_t n,
                                         TransformScratch* s) const {
  const int dim = options_.dim;
  // Reset first: the previous pass's tape closures borrow the union
  // adjacency and the gather indices recycled below.
  s->tape.Reset();
  int64_t total_nodes = 0;
  for (size_t i = 0; i < n; ++i) {
    s->requests[i].offset = total_nodes;
    total_nodes += s->requests[i].tg.graph.num_nodes();
  }
  GRIMP_CHECK(total_nodes < std::numeric_limits<int32_t>::max());

  // Block-diagonal disjoint union: node table + features, then one
  // stitched CSR per edge type. FromParts adopts each neighbor list
  // verbatim (only shifted), so SegmentMean aggregates in exactly the
  // per-request order; message passing cannot cross request boundaries
  // and every kernel downstream is row-independent, so each request's
  // result is bit-identical to a one-request pass.
  s->union_graph.Reset(&s->union_csr, &s->union_adj);
  Tape::VarId features;
  Tensor& union_feats = *s->tape.ConstantInPlace(&features);
  union_feats.ResizeUninit(total_nodes, dim);
  union_feats.Zero();
  for (size_t i = 0; i < n; ++i) {
    const TransformScratch::Request& request = s->requests[i];
    for (const NodeInfo& info : request.tg.graph.nodes()) {
      s->union_graph.AddNode(info);
    }
    const Tensor& f = request.features.node_features;
    std::copy(f.data(), f.data() + f.size(),
              union_feats.data() + request.offset * dim);
  }
  for (int t = 0; t < schema_.num_fields(); ++t) {
    std::vector<int32_t> offsets = s->union_csr.Take();
    std::vector<int32_t> indices = s->union_csr.Take();
    offsets.clear();
    indices.clear();
    offsets.push_back(0);
    for (size_t i = 0; i < n; ++i) {
      const CsrAdjacency& adj = s->requests[i].tg.graph.adjacency(t);
      const int32_t edge_base = static_cast<int32_t>(indices.size());
      for (size_t k = 1; k < adj.offsets().size(); ++k) {
        offsets.push_back(adj.offsets()[k] + edge_base);
      }
      for (int32_t dst : adj.indices()) {
        indices.push_back(dst + static_cast<int32_t>(s->requests[i].offset));
      }
    }
    s->union_adj.push_back(
        CsrAdjacency::FromParts(std::move(offsets), std::move(indices)));
  }
  s->union_graph.SetAdjacency(std::move(s->union_adj));

  ResetCells(s);
  for (size_t i = 0; i < n; ++i) {
    const TransformScratch::Request& request = s->requests[i];
    CollectMissingCells(*request.table, request.tg, /*row_begin=*/0,
                        request.table->num_rows(), i, request.offset,
                        Labeling(), &s->index);
  }
  // The heads read only the cells' rows: index them by position in the
  // read rows and run the last GNN layer and the shared MLP over those
  // rows alone.
  CompactImputeIndex(schema_.num_fields(), total_nodes, &s->index,
                     &s->read_rows, &s->read_scratch);
  return ForwardReadRows(&s->tape, options_.use_gnn ? &gnn_ : nullptr,
                         shared_, features, s->union_graph, &s->read_rows,
                         &s->gnn);
}

void GrimpEngine::ImputeRequests(size_t n, TransformScratch* s) const {
  const Tape::VarId h_shared = ForwardRequests(n, s);
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (s->index.task_cells[t].empty()) continue;
    DecodeTask(t,
               s->tape.value(TaskHeadForward(
                   &s->tape, *tasks_[t].head, h_shared, &s->index.task_idx[t],
                   schema_.num_fields(), options_.dim, &s->heads[t])),
               s);
  }
}

void GrimpEngine::ResetCells(TransformScratch* s) const {
  s->index.Clear(tasks_.size());
  s->heads.resize(tasks_.size());
  s->decisions.clear();
}

void GrimpEngine::DecodeTask(size_t t, const Tensor& scores,
                             TransformScratch* s) const {
  const TaskState& task = tasks_[t];
  const std::vector<MissingCell>& cells = s->index.task_cells[t];
  for (size_t i = 0; i < cells.size(); ++i) {
    CellWrite cell{cells[i].request, cells[i].row, cells[i].col};
    const auto row = static_cast<int64_t>(i);
    if (!task.categorical) {
      cell.value = normalizer_.Denormalize(cell.col, scores.at(row, 0));
      s->decisions.push_back(cell);
      continue;
    }
    // Argmax over the column's live source domain, read from the column's
    // slice of the shared head when multi_task=false.
    const Dictionary& dict = source_dicts_[static_cast<size_t>(cell.col)];
    const int32_t lo = class_offsets_.empty()
                           ? 0
                           : class_offsets_[static_cast<size_t>(cell.col)];
    const int32_t best =
        dict.ArgmaxLive(scores.data() + row * scores.cols() + lo);
    if (best < 0) continue;
    if (schema_.field(cell.col).type == AttrType::kCategorical) {
      cell.code = best;
    } else {
      // multi_task=false classified a numerical cell over its distinct
      // values; those strings are canonical numbers.
      GRIMP_CHECK(ParseDouble(dict.ValueOf(best), &cell.value));
    }
    s->decisions.push_back(cell);
  }
}

Status GrimpEngine::ConstructModel(const Tensor& column_features,
                                   Rng* model_rng) {
  const int num_cols = schema_.num_fields();
  for (const FunctionalDependency& fd : options_.fds) {
    std::vector<int> cols = fd.lhs;
    cols.push_back(fd.rhs);
    for (int col : cols) {
      if (col < 0 || col >= num_cols) {
        return Status::InvalidArgument(
            "GrimpOptions.fds names column " + std::to_string(col) +
            " outside [0, " + std::to_string(num_cols) + ")");
      }
    }
  }
  const int dim = options_.dim;
  if (options_.use_gnn) {
    gnn_ = HeteroGnn(num_cols, dim, dim, dim, options_.gnn_layers,
                     model_rng);
  }
  shared_ = Mlp("shared", {dim, options_.shared_hidden, dim}, model_rng);
  tasks_.clear();
  class_offsets_.clear();
  if (!options_.multi_task) {
    // Ablation: one multiclass head over the union of all domains
    // (GNN-MC / EmbDI-MC in Fig. 10). Numerical attributes are classified
    // over their distinct (rounded) values.
    class_offsets_.assign(static_cast<size_t>(num_cols) + 1, 0);
    for (int c = 0; c < num_cols; ++c) {
      class_offsets_[static_cast<size_t>(c) + 1] =
          class_offsets_[static_cast<size_t>(c)] +
          source_dicts_[static_cast<size_t>(c)].size();
    }
    TaskState task;
    task.head = std::make_unique<LinearTaskHead>(
        "task.mc", num_cols, dim, options_.task_hidden,
        std::max(1, class_offsets_.back()), model_rng);
    tasks_.push_back(std::move(task));
    return Status::OK();
  }
  for (int c = 0; c < num_cols; ++c) {
    const Dictionary& dict = source_dicts_[static_cast<size_t>(c)];
    TaskState task;
    task.col = c;
    task.categorical = schema_.field(c).type == AttrType::kCategorical;
    const int out_dim = task.categorical ? std::max(1, dict.size()) : 1;
    const std::string task_name = "task." + schema_.field(c).name;
    if (options_.task_kind == TaskKind::kAttention) {
      task.head = std::make_unique<AttentionTaskHead>(
          task_name, column_features,
          BuildKDiagonal(options_.k_strategy, c, num_cols, options_.fds),
          dim, out_dim, model_rng, options_.task_hidden);
    } else {
      task.head = std::make_unique<LinearTaskHead>(
          task_name, num_cols, dim, options_.task_hidden, out_dim,
          model_rng);
    }
    if (task.categorical) {
      task.head->SetOutputBias(LogPriorBias(dict));
    }
    tasks_.push_back(std::move(task));
  }
  return Status::OK();
}

void GrimpEngine::CollectParams(std::vector<Parameter*>* out) {
  if (options_.use_gnn) gnn_.CollectParameters(out);
  shared_.CollectParameters(out);
  for (TaskState& task : tasks_) task.head->CollectParameters(out);
}

std::vector<TrainTask> GrimpEngine::MakeTrainTasks() const {
  std::vector<TrainTask> train_tasks(tasks_.size());
  for (size_t t = 0; t < tasks_.size(); ++t) {
    train_tasks[t].categorical = tasks_[t].categorical;
    train_tasks[t].head = tasks_[t].head.get();
  }
  return train_tasks;
}

Status GrimpEngine::Train(const Table& source, TableGraph* tg,
                          PretrainedFeatures* features) {
  const int num_cols = source.num_cols();
  Rng rng(options_.seed);
  summary_ = TrainSummary{};

  // 1. Preprocessing: normalization, corpus, graph (validation target
  //    edges removed), pre-trained features (paper Alg. 1 first phase).
  schema_ = source.schema();
  source_dicts_.clear();
  for (int c = 0; c < num_cols; ++c) {
    source_dicts_.push_back(source.column(c).dict());
  }
  normalizer_ = Normalizer::Fit(source);

  Rng corpus_rng = rng.Fork();
  const TrainingCorpus corpus =
      BuildTrainingCorpus(source, options_.validation_fraction,
                          options_.max_samples_per_task, &corpus_rng);
  GraphBuildOptions graph_options;
  graph_options.max_neighbors_per_node = options_.graph.neighbor_cap;
  graph_options.seed = options_.seed;
  GRIMP_ASSIGN_OR_RETURN(
      *tg,
      GraphBuilder(graph_options).Build(source, corpus.ValidationCells()));
  auto initializer = MakeFeatureInitializer(options_.features);
  GRIMP_ASSIGN_OR_RETURN(
      *features, initializer->Init(source, *tg, options_.dim, rng.Next()));

  // The store is the trainer's only view of the topology. In-memory mode
  // borrows tg->graph (the degenerate single-shard case); sharded mode
  // spills the CSRs to disk at Create, after which the in-core copy is
  // dropped — from here on the full adjacency never lives in memory again.
  GRIMP_ASSIGN_OR_RETURN(std::unique_ptr<GraphStore> store,
                         MakeGraphStore(tg->graph, options_.graph));
  if (options_.graph.shard_mode == ShardMode::kSharded) {
    tg->graph.SetAdjacency({});
  }

  // 2. Model construction.
  Rng model_rng = rng.Fork();
  {
    GRIMP_TRACE_SPAN("grimp.model_build");
    GRIMP_RETURN_IF_ERROR(
        ConstructModel(features->column_features, &model_rng));
  }

  // 3. Gather indices / labels / targets per task.
  std::vector<TrainTask> train_tasks = MakeTrainTasks();
  {
    GRIMP_TRACE_SPAN("grimp.task_build");
    BuildTrainTasks(source, *tg, corpus.train, corpus.validation, Labeling(),
                    &train_tasks);
  }

  // 4. Training (paper Alg. 1) via the shared Trainer (see trainer.h).
  Trainer trainer(options_, store.get(), &features->node_features,
                  options_.use_gnn ? &gnn_ : nullptr, &shared_,
                  std::move(train_tasks), num_cols);
  GRIMP_ASSIGN_OR_RETURN(summary_, trainer.Run(options_.callbacks));
  fitted_ = true;
  return Status::OK();
}

Status GrimpEngine::Fit(const Table& source) {
  GRIMP_RETURN_IF_ERROR(options_.Validate());
  if (source.num_rows() == 0 || source.num_cols() == 0) {
    return Status::InvalidArgument("empty table");
  }
  GRIMP_RETURN_IF_ERROR(CheckInductive(options_));
  RecordThreadPoolMetrics();
  GRIMP_TRACE_SPAN("grimp.fit");
  TableGraph tg;
  PretrainedFeatures features;
  return Train(source, &tg, &features);
}

Result<Table> GrimpEngine::FitImpute(const Table& dirty) {
  GRIMP_RETURN_IF_ERROR(options_.Validate());
  if (dirty.num_rows() == 0 || dirty.num_cols() == 0) {
    return Status::InvalidArgument("empty table");
  }
  if (options_.graph.shard_mode == ShardMode::kSharded) {
    return Status::FailedPrecondition(
        "FitImpute does not support sharded graph storage: its decode "
        "step runs one whole-graph forward (use Fit for out-of-core "
        "training)");
  }
  RecordThreadPoolMetrics();
  GRIMP_TRACE_SPAN("grimp.impute");
  TransformScratch s;
  s.requests.resize(1);
  TransformScratch::Request& request = s.requests[0];
  request.table = &dirty;
  GRIMP_RETURN_IF_ERROR(Train(dirty, &request.tg, &request.features));

  // Imputation (paper §3.7): the fit-time graph and features are the one
  // request of batch TransformMany's forward, run once with the best
  // weights; every missing cell is filled from its task's prediction.
  TraceSpan decode_span("grimp.decode");
  ImputeRequests(1, &s);
  decode_span.Stop();
  Table imputed = dirty;
  Table* const out[] = {&imputed};
  ApplyDecisions(out, &s);
  return imputed;
}

Result<TrainSummary> GrimpEngine::Resume(const StreamContext& ctx,
                                         const ResumeOptions& resume) {
  GRIMP_RETURN_IF_ERROR(CheckServable());
  GRIMP_RETURN_IF_ERROR(CheckStreamContext(ctx));
  const Table& live = *ctx.table;

  GrimpOptions local = options_;
  local.train.mode = TrainMode::kSampled;
  if (!ctx.fanouts.empty()) local.train.fanouts = ctx.fanouts;
  if (resume.max_epochs > 0) local.max_epochs = resume.max_epochs;
  if (resume.learning_rate > 0.0f) {
    local.learning_rate = resume.learning_rate;
  }
  GRIMP_RETURN_IF_ERROR(local.Validate());
  GRIMP_TRACE_SPAN("grimp.resume");
  const int num_cols = schema_.num_fields();

  const int64_t n = live.num_rows();
  const int64_t window =
      resume.window_rows > 0 ? std::min(resume.window_rows, n) : n;
  const int64_t row_begin = n - window;

  // Recency-weighted sample selection over the window's present cells.
  // Cells outside the fitted source domain are skipped: the task heads
  // were sized to the source dictionaries, so an unseen value has no
  // class to train toward (its edges still inform its neighbors).
  Rng rng(MixSeed(options_.seed ^ kResumeSalt, 0, resume.nonce));
  std::vector<TrainingSample> selected;
  for (int64_t r = row_begin; r < n; ++r) {
    double keep = 1.0;
    if (resume.half_life_rows > 0.0) {
      const double age = static_cast<double>(n - 1 - r);
      keep = std::exp2(-age / resume.half_life_rows);
    }
    for (int c = 0; c < num_cols; ++c) {
      const Column& col = live.column(c);
      if (col.IsMissing(r)) continue;
      if (col.is_categorical() &&
          col.CodeAt(r) >=
              source_dicts_[static_cast<size_t>(c)].size()) {
        continue;
      }
      if (keep < 1.0 && !rng.Bernoulli(keep)) continue;
      selected.push_back(TrainingSample{r, c});
    }
  }
  if (selected.empty()) {
    summary_ = TrainSummary{};
    summary_.mode = TrainMode::kSampled;
    return summary_;
  }
  rng.Shuffle(&selected);
  const auto split = static_cast<size_t>(
      static_cast<double>(selected.size()) *
      (1.0 - local.validation_fraction));

  std::vector<TrainTask> train_tasks = MakeTrainTasks();
  const std::span<const TrainingSample> samples(selected);
  BuildTrainTasks(live, *ctx.tg, samples.first(split), samples.subspan(split),
                  Labeling(), &train_tasks);

  Trainer trainer(local, ctx.store, ctx.node_features, &gnn_, &shared_,
                  std::move(train_tasks), num_cols);
  GRIMP_ASSIGN_OR_RETURN(summary_,
                         trainer.Run(local.callbacks, /*warm_start=*/true));
  return summary_;
}

namespace {
constexpr uint64_t kModelMagic = 0x4752494d504d444cULL;  // "GRIMPMDL"
// v3: trailing Checksum64 footer over the whole payload (v2 used FNV-1a).
constexpr uint32_t kModelVersion = 3;
}  // namespace


Result<Tensor> GrimpEngine::AttentionSummary(const Table& table) const {
  GRIMP_RETURN_IF_ERROR(CheckServable());
  if (options_.task_kind != TaskKind::kAttention) {
    return Status::FailedPrecondition("attention tasks required");
  }
  GRIMP_RETURN_IF_ERROR(CheckSchema(table));
  const int num_cols = table.num_cols();
  TransformScratch s;
  GRIMP_RETURN_IF_ERROR(BuildRequest(table, 0, &s));
  const Tape::VarId h_shared = ForwardRequests(1, &s);

  Tensor summary(num_cols, num_cols);
  for (size_t t = 0; t < tasks_.size(); ++t) {
    auto* attention_head =
        dynamic_cast<const AttentionTaskHead*>(tasks_[t].head.get());
    if (attention_head == nullptr || s.index.task_cells[t].empty()) continue;
    (void)attention_head->ForwardRows(&s.tape, h_shared, &s.index.task_idx[t],
                                      num_cols, &s.heads[t]);
    const Tensor& att = s.heads[t].alpha;
    for (int64_t r = 0; r < att.rows(); ++r) {
      for (int c = 0; c < num_cols; ++c) {
        summary.at(tasks_[t].col, c) +=
            att.at(r, c) / static_cast<float>(att.rows());
      }
    }
  }
  return summary;
}

Status GrimpEngine::Save(const std::string& path) {
  GRIMP_RETURN_IF_ERROR(CheckServable());
  BinaryWriter writer(path);
  if (!writer.ok()) return Status::IoError("cannot open " + path);
  writer.WriteU64(kModelMagic);
  writer.WriteU32(kModelVersion);

  // Configuration (only the fields that shape the model / inference).
  writer.WriteI32(static_cast<int32_t>(options_.features));
  writer.WriteI32(static_cast<int32_t>(options_.task_kind));
  writer.WriteI32(static_cast<int32_t>(options_.k_strategy));
  writer.WriteI32(options_.dim);
  writer.WriteI32(options_.shared_hidden);
  writer.WriteI32(options_.task_hidden);
  writer.WriteI32(options_.gnn_layers);
  writer.WriteBool(options_.use_gnn);
  writer.WriteI32(options_.graph.neighbor_cap);
  writer.WriteU64(options_.seed);
  writer.WriteU64(options_.fds.size());
  for (const FunctionalDependency& fd : options_.fds) {
    writer.WriteU64(fd.lhs.size());
    for (int col : fd.lhs) writer.WriteI32(col);
    writer.WriteI32(fd.rhs);
  }

  // Source schema, domains and normalizer.
  writer.WriteU64(static_cast<uint64_t>(schema_.num_fields()));
  for (const Field& field : schema_.fields()) {
    writer.WriteString(field.name);
    writer.WriteI32(static_cast<int32_t>(field.type));
  }
  for (const Dictionary& dict : source_dicts_) {
    writer.WriteStringVector(dict.values());
    writer.WriteI64Vector(dict.counts());
  }
  writer.WriteF64Vector(normalizer_.means());
  writer.WriteF64Vector(normalizer_.stds());

  // Trained weights, in CollectParams order.
  std::vector<Parameter*> params;
  CollectParams(&params);
  writer.WriteU64(params.size());
  for (const Parameter* p : params) {
    writer.WriteString(p->name);
    writer.WriteI64(p->value.rows());
    writer.WriteI64(p->value.cols());
    std::vector<float> data(p->value.data(),
                            p->value.data() + p->value.size());
    writer.WriteF32Vector(data);
  }
  // Footer: Checksum64 over every payload byte above, so Load can reject
  // truncated or bit-flipped artifacts before deserializing them.
  const uint64_t checksum = writer.hash();
  writer.WriteU64(checksum);
  return writer.Close();
}

Result<std::unique_ptr<GrimpEngine>> GrimpEngine::Load(
    const std::string& path) {
  BinaryReader reader(path);
  GRIMP_RETURN_IF_ERROR(reader.status());
  GRIMP_ASSIGN_OR_RETURN(uint64_t magic, reader.ReadU64());
  if (magic != kModelMagic) {
    return Status::InvalidArgument("not a GRIMP model file: " + path);
  }
  GRIMP_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kModelVersion) {
    return Status::InvalidArgument(
        "unsupported model version in " + path + ": expected " +
        std::to_string(kModelVersion) + ", found " + std::to_string(version));
  }
  // The sequential reader below never consumes the 8-byte footer, so the
  // whole-file pass here is the only integrity check.
  GRIMP_RETURN_IF_ERROR(VerifyTrailingChecksum(path));

  GrimpOptions options;
  GRIMP_ASSIGN_OR_RETURN(int32_t features, reader.ReadI32());
  options.features = static_cast<FeatureInitKind>(features);
  GRIMP_ASSIGN_OR_RETURN(int32_t task_kind, reader.ReadI32());
  options.task_kind = static_cast<TaskKind>(task_kind);
  GRIMP_ASSIGN_OR_RETURN(int32_t k_strategy, reader.ReadI32());
  options.k_strategy = static_cast<KStrategy>(k_strategy);
  GRIMP_ASSIGN_OR_RETURN(options.dim, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.shared_hidden, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.task_hidden, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.gnn_layers, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.use_gnn, reader.ReadBool());
  GRIMP_ASSIGN_OR_RETURN(options.graph.neighbor_cap, reader.ReadI32());
  GRIMP_ASSIGN_OR_RETURN(options.seed, reader.ReadU64());
  GRIMP_ASSIGN_OR_RETURN(uint64_t num_fds, reader.ReadU64());
  if (num_fds > BinaryReader::kMaxLength) {
    return Status::InvalidArgument("corrupt FD count");
  }
  for (uint64_t i = 0; i < num_fds; ++i) {
    FunctionalDependency fd;
    GRIMP_ASSIGN_OR_RETURN(uint64_t lhs_size, reader.ReadU64());
    if (lhs_size > BinaryReader::kMaxLength) {
      return Status::InvalidArgument("corrupt FD");
    }
    for (uint64_t k = 0; k < lhs_size; ++k) {
      GRIMP_ASSIGN_OR_RETURN(int32_t col, reader.ReadI32());
      fd.lhs.push_back(col);
    }
    GRIMP_ASSIGN_OR_RETURN(fd.rhs, reader.ReadI32());
    options.fds.push_back(std::move(fd));
  }
  GRIMP_RETURN_IF_ERROR(options.Validate());
  GRIMP_RETURN_IF_ERROR(CheckInductive(options));

  auto engine = std::make_unique<GrimpEngine>(options);
  GRIMP_ASSIGN_OR_RETURN(uint64_t num_fields, reader.ReadU64());
  if (num_fields == 0 || num_fields > 4096) {
    return Status::InvalidArgument("corrupt field count");
  }
  std::vector<Field> fields;
  for (uint64_t c = 0; c < num_fields; ++c) {
    Field field;
    GRIMP_ASSIGN_OR_RETURN(field.name, reader.ReadString());
    GRIMP_ASSIGN_OR_RETURN(int32_t type, reader.ReadI32());
    field.type = static_cast<AttrType>(type);
    fields.push_back(std::move(field));
  }
  engine->schema_ = Schema(std::move(fields));
  for (uint64_t c = 0; c < num_fields; ++c) {
    GRIMP_ASSIGN_OR_RETURN(auto values, reader.ReadStringVector());
    GRIMP_ASSIGN_OR_RETURN(auto counts, reader.ReadI64Vector());
    if (values.size() != counts.size()) {
      return Status::InvalidArgument("corrupt dictionary");
    }
    Dictionary dict;
    for (size_t i = 0; i < values.size(); ++i) {
      const int32_t code = dict.GetOrAdd(values[i]);
      dict.AddOccurrence(code, counts[i]);
    }
    engine->source_dicts_.push_back(std::move(dict));
  }
  GRIMP_ASSIGN_OR_RETURN(auto means, reader.ReadF64Vector());
  GRIMP_ASSIGN_OR_RETURN(auto stds, reader.ReadF64Vector());
  if (means.size() != num_fields || stds.size() != num_fields) {
    return Status::InvalidArgument("corrupt normalizer");
  }
  engine->normalizer_ =
      Normalizer::FromMoments(std::move(means), std::move(stds));

  // Rebuild the architecture, then overwrite every weight.
  Rng model_rng(options.seed);
  GRIMP_RETURN_IF_ERROR(engine->ConstructModel(
      Tensor::Zeros(static_cast<int64_t>(num_fields), options.dim),
      &model_rng));
  std::vector<Parameter*> params;
  engine->CollectParams(&params);
  GRIMP_ASSIGN_OR_RETURN(uint64_t num_params, reader.ReadU64());
  if (num_params != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(num_params) +
        ", architecture has " + std::to_string(params.size()));
  }
  for (Parameter* p : params) {
    GRIMP_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    GRIMP_ASSIGN_OR_RETURN(int64_t rows, reader.ReadI64());
    GRIMP_ASSIGN_OR_RETURN(int64_t cols, reader.ReadI64());
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return Status::InvalidArgument("tensor shape mismatch for " + name);
    }
    GRIMP_ASSIGN_OR_RETURN(auto data, reader.ReadF32Vector());
    if (static_cast<int64_t>(data.size()) != p->value.size()) {
      return Status::InvalidArgument("tensor size mismatch for " + name);
    }
    p->value = Tensor::FromVector(rows, cols, std::move(data));
  }
  engine->fitted_ = true;
  return engine;
}

Status GrimpEngine::CheckCompatible(const Table& table) const {
  GRIMP_RETURN_IF_ERROR(CheckServable());
  return CheckSchema(table);
}

Status GrimpEngine::TransformMany(std::span<Table* const> tables,
                                  const TransformOptions& options) const {
  GRIMP_RETURN_IF_ERROR(CheckServable());
  if (options.stream != nullptr) {
    if (tables.size() != 1) {
      return Status::InvalidArgument(
          "streaming TransformMany takes exactly one window table, got " +
          std::to_string(tables.size()));
    }
    if (tables[0] == nullptr) {
      return Status::InvalidArgument("null table in batch");
    }
    return TransformStream(tables[0], *options.stream);
  }
  if (tables.empty()) return Status::OK();
  for (const Table* t : tables) {
    if (t == nullptr) return Status::InvalidArgument("null table in batch");
    GRIMP_RETURN_IF_ERROR(CheckSchema(*t));
  }
  GRIMP_TRACE_SPAN("grimp.transform_batch");
  thread_local std::unique_ptr<TransformScratch> tls_scratch;
  if (tls_scratch == nullptr) {
    tls_scratch = std::make_unique<TransformScratch>();
  }
  TransformScratch& s = *tls_scratch;
  for (size_t i = 0; i < tables.size(); ++i) {
    GRIMP_RETURN_IF_ERROR(BuildRequest(*tables[i], i, &s));
  }
  ImputeRequests(tables.size(), &s);

  // All reads are done; apply the writes.
  ApplyDecisions(tables, &s);
  return Status::OK();
}

Status GrimpEngine::TransformStream(Table* window,
                                    const StreamContext& ctx) const {
  GRIMP_RETURN_IF_ERROR(CheckStreamContext(ctx));
  GRIMP_RETURN_IF_ERROR(CheckSchema(*window));
  const Table& live = *ctx.table;
  const int64_t w = window->num_rows();
  if (ctx.row_begin < 0 || ctx.row_begin > live.num_rows() - w) {
    return Status::OutOfRange(
        "stream window of " + std::to_string(w) + " rows at row " +
        std::to_string(ctx.row_begin) + " outside the live table (" +
        std::to_string(live.num_rows()) + " rows)");
  }
  GRIMP_TRACE_SPAN("grimp.transform_stream");
  TransformScratch s;
  ResetCells(&s);
  CollectMissingCells(live, *ctx.tg, ctx.row_begin, w, /*request=*/0,
                      /*node_offset=*/0, Labeling(), &s.index);
  FillTaskIndices(schema_.num_fields(), &s.index);

  // One sampled batch per task, all prepared with one joint sample (one
  // shard visit per layer for the window), then forwarded and decoded in
  // task order. Each task's sampling stream is keyed on (seed, task,
  // nonce), so imputations are a pure function of the graph, the window
  // and the nonce.
  BatchScratch scratch(
      ctx.store,
      FanoutsOrDefault(ctx.fanouts.empty() ? options_.train.fanouts
                                           : ctx.fanouts,
                       gnn_.num_layers()));
  std::vector<SampledBatchSpec> specs;
  std::vector<size_t> spec_task;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (s.index.task_cells[t].empty()) continue;
    specs.push_back({s.index.task_idx[t], MixSeed(options_.seed ^ kStreamSalt,
                                            static_cast<uint64_t>(t),
                                            ctx.nonce)});
    spec_task.push_back(t);
  }
  std::vector<PreparedBatch> batches(specs.size());
  PrepareSampledBatches(specs, &scratch, batches.data());
  for (size_t b = 0; b < batches.size(); ++b) {
    const size_t t = spec_task[b];
    s.tape.Reset();
    DecodeTask(t,
               s.tape.value(ForwardBatch(
                   &s.tape, gnn_, shared_, *tasks_[t].head,
                   *ctx.node_features, batches[b], schema_.num_fields(),
                   options_.dim, &s.gnn, &s.heads[t])),
               &s);
  }

  // Like batch mode, every live-table read happened before the window is
  // mutated.
  Table* const out[] = {window};
  ApplyDecisions(out, &s);
  return Status::OK();
}

}  // namespace grimp
