#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "graph/sampler.h"
#include "tensor/optimizer.h"
#include "tensor/simd.h"

namespace grimp {

namespace {

// Salt separating validation streams from training streams.
constexpr uint64_t kValSalt = 0x76616c6964ULL;  // "valid"

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(Now() - t0).count();
}

// Sampled batch-preparation telemetry, resolved once (registry lookup takes
// a mutex). The span name is held here so recording a span allocates
// nothing.
struct PrepMetrics {
  Counter& produced;  // batches prepared
  Counter& consumed;  // batches stepped
  const std::string prepare_span = "train.pipeline.prepare";
};

PrepMetrics& Prep() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static PrepMetrics metrics{registry.GetCounter("train.pipeline.produced"),
                             registry.GetCounter("train.pipeline.consumed")};
  return metrics;
}

// The seed of a scalar loss's backward, shared read-only by every tape.
const Tensor& One() {
  static const Tensor one = Tensor::Scalar(1.0f);
  return one;
}

// The task's loss on head output `out`: focal or cross-entropy for
// categorical tasks, MSE for numerical ones. Borrows labels/targets.
Tape::VarId TaskLoss(Tape* tape, const TrainTask& task, float focal_gamma,
                     Tape::VarId out, const std::vector<int32_t>& labels,
                     const std::vector<float>& targets) {
  if (task.categorical) {
    return focal_gamma > 0.0f ? tape->FocalLoss(out, &labels, focal_gamma)
                              : tape->SoftmaxCrossEntropy(out, &labels);
  }
  return tape->MseLoss(out, &targets);
}

}  // namespace

Trainer::Trainer(const GrimpOptions& options, const GraphStore* store,
                 const Tensor* node_features, HeteroGnn* gnn, Mlp* shared,
                 std::vector<TrainTask> tasks, int num_cols)
    : options_(options),
      store_(store),
      node_features_(node_features),
      gnn_(gnn),
      shared_(shared),
      tasks_(std::move(tasks)),
      num_cols_(num_cols),
      head_runs_(tasks_.size()) {
  GRIMP_CHECK(store_ != nullptr);
  GRIMP_CHECK(node_features_ != nullptr);
  GRIMP_CHECK(shared_ != nullptr);
  GRIMP_CHECK(!options_.use_gnn || gnn_ != nullptr);
  GRIMP_CHECK_GT(num_cols_, 0);
  // Full mode runs whole-graph forwards, which only an in-memory store can
  // serve.
  GRIMP_CHECK(options_.train.mode == TrainMode::kSampled ||
              store_->full_graph() != nullptr);
  // Full-mode heads run their backward passes concurrently, each writing
  // its head's parameter grads, so no two tasks may share a head.
  std::vector<const TaskHead*> heads;
  for (const TrainTask& task : tasks_) {
    GRIMP_CHECK(task.head != nullptr);
    heads.push_back(task.head);
  }
  std::sort(heads.begin(), heads.end());
  GRIMP_CHECK(std::adjacent_find(heads.begin(), heads.end()) == heads.end())
      << "two TrainTasks share one TaskHead";
  for (size_t t = 0; t < tasks_.size(); ++t) {
    head_runs_[t].attention =
        dynamic_cast<const AttentionTaskHead*>(tasks_[t].head);
  }
  grad_sources_.resize(tasks_.size());
}

void BuildReadSet(std::span<TrainTask> tasks, int64_t num_nodes,
                  std::vector<int32_t>* read_rows,
                  std::vector<std::vector<int32_t>>* read_idx) {
  const size_t n = tasks.size();
  read_idx->resize(2 * n);
  std::vector<const std::vector<int32_t>*> lists(2 * n);
  for (size_t t = 0; t < n; ++t) {
    std::vector<int32_t>* own[2] = {&tasks[t].train_idx, &tasks[t].val_idx};
    for (size_t k = 0; k < 2; ++k) {
      const size_t l = k * n + t;
      (*read_idx)[l] = std::move(*own[k]);
      own[k]->clear();
      lists[l] = &(*read_idx)[l];
    }
  }
  ReadRowScratch scratch;
  CompactToReadRows(lists, num_nodes, read_rows, *read_idx, &scratch);
}

void TaskGradReduce::Build(std::span<const std::vector<int32_t>> train_idx,
                           int64_t num_rows, int num_cols) {
  num_cols_ = num_cols;
  const size_t num_tasks = train_idx.size();
  // Task t's counts, then cursors, are cursor[t * stride + r + 1] for row
  // r; [t * stride] counts its masked cells (-1), so counting does not
  // branch on them.
  const auto stride = static_cast<size_t>(num_rows) + 1;
  std::vector<int32_t> cursor(num_tasks * stride, 0);
  ParallelFor(0, static_cast<int64_t>(num_tasks), 1,
              [&](int64_t lo, int64_t hi) {
    for (auto t = static_cast<size_t>(lo); t < static_cast<size_t>(hi); ++t) {
      int32_t* count = cursor.data() + t * stride;
      for (const int32_t r : train_idx[t]) {
        GRIMP_CHECK(r >= -1 && r < num_rows);
        ++count[r + 1];
      }
    }
  });
  // Row r's entries hold tasks descending, so task t's first entry in row r
  // follows the row's start and every higher task's entries there; the
  // counts become those cursors.
  offsets_.assign(stride, 0);
  for (size_t r = 1; r < stride; ++r) {
    int32_t at = offsets_[r - 1];
    for (size_t t = num_tasks; t-- > 0;) {
      const int32_t count = cursor[t * stride + r];
      cursor[t * stride + r] = at;
      at += count;
    }
    offsets_[r] = at;
  }
  // Each task fills its own cursors, positions ascending. The entries are
  // sized here and first touched by the filling lanes.
  num_entries_ = static_cast<size_t>(offsets_.back());
  entries_.reset(new Entry[num_entries_]);
  ParallelFor(0, static_cast<int64_t>(num_tasks), 1,
              [&](int64_t lo, int64_t hi) {
    for (auto t = static_cast<size_t>(lo); t < static_cast<size_t>(hi); ++t) {
      int32_t* next = cursor.data() + t * stride;
      const std::vector<int32_t>& idx = train_idx[t];
      for (size_t i = 0; i < idx.size(); ++i) {
        const int32_t r = idx[i];
        if (r < 0) continue;
        entries_[static_cast<size_t>(next[r + 1]++)] =
            Entry{static_cast<int32_t>(t), static_cast<int32_t>(i)};
      }
    }
  });
  // About 8 chunks per thread, so the hottest rows' chunks even out. A
  // chunk ends once it holds `target` entries, or at the last row.
  constexpr int32_t kMinChunkEntries = 1024;
  const int32_t target = std::max(
      kMinChunkEntries,
      offsets_.back() / (8 * ThreadPool::Global().num_threads()));
  chunks_.assign(1, 0);
  for (auto r = static_cast<size_t>(1); r <= static_cast<size_t>(num_rows);
       ++r) {
    if (r == static_cast<size_t>(num_rows) ||
        offsets_[r] - offsets_[static_cast<size_t>(chunks_.back())] >=
            target) {
      chunks_.push_back(static_cast<int32_t>(r));
    }
  }
}

void TaskGradReduce::Run(const std::vector<Source>& sources,
                         Tensor* h_grad) const {
  GRIMP_CHECK_EQ(static_cast<size_t>(h_grad->rows()) + 1, offsets_.size());
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t d = h_grad->cols();
  ParallelFor(0, static_cast<int64_t>(chunks_.size()) - 1, 1,
              [&](int64_t lo, int64_t hi) {
    // A row's terms go to the kernel in batches, which holds the row in
    // registers across each batch.
    constexpr int32_t kBatch = 64;
    simd::InputGradTerm terms[kBatch];
    for (int64_t k = lo; k < hi; ++k) {
      const auto row_end = static_cast<size_t>(chunks_[k + 1]);
      for (auto r = static_cast<size_t>(chunks_[k]); r < row_end; ++r) {
        float* dst = h_grad->data() + static_cast<int64_t>(r) * d;
        for (int32_t e0 = offsets_[r]; e0 < offsets_[r + 1]; e0 += kBatch) {
          const int32_t count = std::min(kBatch, offsets_[r + 1] - e0);
          for (int32_t e = 0; e < count; ++e) {
            const Entry entry = entries_[static_cast<size_t>(e0 + e)];
            const Source& source = sources[static_cast<size_t>(entry.task)];
            simd::InputGradTerm& term = terms[e];
            if (source.attention != nullptr) {
              const AttentionScratch& f = *source.attention;
              term.g = f.ctx_grad.data() + (entry.pos / num_cols_) * d;
              term.a = f.query.data();
              term.alpha = f.alpha.data()[entry.pos];
              term.score_grad = f.score_grad.data()[entry.pos];
            } else {
              term.g = source.dense->data() + entry.pos * d;
              term.a = nullptr;
            }
          }
          kt.attention_input_grad(d, count, terms, dst);
        }
      }
    }
  });
}

void Trainer::RunTaskHead(size_t t, const Tensor& h) {
  const TrainTask& task = tasks_[t];
  HeadRun& run = head_runs_[t];
  const std::vector<int32_t>& train_idx = read_idx_[t];
  const std::vector<int32_t>& val_idx = read_idx_[tasks_.size() + t];
  Tape& tape = run.tape;
  // The head over rows `idx` of h; a linear head's gathered input goes to
  // *input, which carries a gradient for the training samples (the reduce
  // reads it).
  const auto head = [&](const std::vector<int32_t>& idx,
                        AttentionScratch* scratch, Tape::VarId* input,
                        bool wants_grad) {
    if (run.attention != nullptr) {
      return run.attention->ForwardDetached(&tape, &h, &idx, scratch);
    }
    GatherTaskRows(h, idx, num_cols_, tape.ConstantInPlace(input, wants_grad));
    return task.head->Forward(&tape, *input);
  };
  // Borrowing loss overloads: the task's label/target vectors are Trainer
  // members, alive past the sub-tape's Reset.
  if (!train_idx.empty()) {
    const Tape::VarId loss =
        TaskLoss(&tape, task, options_.focal_gamma,
                 head(train_idx, &run.train_factors, &run.train_in, true),
                 task.train_labels, task.train_targets);
    run.train_loss = tape.value(loss).scalar();
    tape.BackwardFrom(loss, One());
  }
  if (!val_idx.empty()) {
    Tape::VarId val_in = -1;
    run.val_loss =
        tape.value(TaskLoss(&tape, task, options_.focal_gamma,
                            head(val_idx, &run.val_scratch, &val_in, false),
                            task.val_labels, task.val_targets))
            .scalar();
  }
}

Trainer::HeadLosses Trainer::RunTaskHeads(const Tensor& h, Tensor* h_grad) {
  const auto num_tasks = static_cast<int64_t>(tasks_.size());
  HeadLosses losses;
  // The sub-tapes take their buffers on the first pass and keep them. That
  // pass runs on this thread, so the buffers come from its malloc arena,
  // where the next Run finds them again once these are freed; taken on
  // pool workers, each worker's arena would keep what it freed and peak RSS
  // would climb with every Run. Later passes allocate nothing and fan out.
  const auto run_tasks = [&](int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) RunTaskHead(static_cast<size_t>(t), h);
  };
  if (heads_sized_) {
    ParallelFor(0, num_tasks, 1, run_tasks);
  } else {
    run_tasks(0, num_tasks);
    heads_sized_ = true;
  }
  const auto reduce_start = Now();
  for (size_t t = 0; t < tasks_.size(); ++t) {
    HeadRun& run = head_runs_[t];
    TaskGradReduce::Source& source = grad_sources_[t];
    source = TaskGradReduce::Source{};
    if (tasks_[t].NumTrain() == 0) continue;
    if (run.attention != nullptr) {
      source.attention = &run.train_factors;
    } else {
      source.dense = &run.tape.grad(run.train_in);
    }
  }
  grad_reduce_.Run(grad_sources_, h_grad);
  for (HeadRun& run : head_runs_) run.tape.Reset();
  losses.reduce_seconds = SecondsSince(reduce_start);
  // Ascending task order, as the shared tape's Add chain (float) and the
  // validation sum (double) accumulated them.
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const TrainTask& task = tasks_[t];
    const HeadRun& run = head_runs_[t];
    if (task.NumTrain() > 0) {
      losses.train_loss =
          losses.trained ? losses.train_loss + run.train_loss : run.train_loss;
      losses.trained = true;
    }
    if (task.NumVal() > 0) {
      losses.val_loss += run.val_loss;
      losses.has_val = true;
    }
  }
  return losses;
}

bool Trainer::KeepIfBest(double val_loss) {
  if (!(val_loss < best_val_ - 1e-6)) return false;
  best_val_ = val_loss;
  // The first kept weights size the buffers; later ones copy into them.
  best_params_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    best_params_[i] = params_[i]->value;
  }
  return true;
}

Trainer::EpochResult Trainer::RunFullEpoch(Adam* opt) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  TraceSpan forward_span("train.forward");
  tape_.Reset();  // reuse node slots from the previous epoch
  const Tape::VarId h_shared = ForwardReadRows(
      &tape_, options_.use_gnn ? gnn_ : nullptr, *shared_,
      tape_.Constant(node_features_), *store_->full_graph(), &read_rows_,
      &gnn_scratch_);
  forward_span.Stop();

  const auto heads_start = Now();
  const Tensor& h = tape_.value(h_shared);
  h_grad_.ResizeUninit(h.rows(), h.cols());
  h_grad_.Zero();
  const HeadLosses losses = RunTaskHeads(h, &h_grad_);
  registry.RecordSpan("train.heads",
                      SecondsSince(heads_start) - losses.reduce_seconds);
  registry.RecordSpan("train.reduce", losses.reduce_seconds);

  EpochResult result;
  if (!losses.trained) return result;  // nothing to train on
  result.train_loss = losses.train_loss;
  result.val_loss = losses.val_loss;
  result.has_val = losses.has_val;
  // The heads scored the weights the step below moves: those are the ones
  // an improvement keeps.
  result.improved = result.has_val && KeepIfBest(result.val_loss);
  TraceSpan backward_span("train.backward");
  tape_.BackwardFrom(h_shared, h_grad_);
  backward_span.Stop();
  TraceSpan step_span("train.step");
  opt->ClipGradNorm(options_.grad_clip);
  opt->Step();
  opt->ZeroGrad();
  ++summary_.steps_run;
  result.trained = true;
  return result;
}

void Trainer::PrepareGroup(int64_t begin, int64_t end, bool validation) {
  PrepMetrics& metrics = Prep();
  const auto start = Now();
  specs_.clear();
  for (int64_t b = begin; b < end; ++b) {
    const BatchPlan& plan = plans_[static_cast<size_t>(b)];
    const TrainTask& task = tasks_[static_cast<size_t>(plan.task)];
    const std::span<const int32_t> idx(validation ? task.val_idx
                                                  : task.train_idx);
    specs_.push_back(
        {idx.subspan(static_cast<size_t>(plan.start * num_cols_),
                     static_cast<size_t>(plan.bn * num_cols_)),
         plan.seed});
    PreparedBatch& batch = slots_[static_cast<size_t>(b - begin)];
    if (task.categorical) {
      const std::vector<int32_t>& labels =
          validation ? task.val_labels : task.train_labels;
      batch.labels.assign(labels.begin() + plan.start,
                          labels.begin() + plan.start + plan.bn);
    } else {
      const std::vector<float>& targets =
          validation ? task.val_targets : task.train_targets;
      batch.targets.assign(targets.begin() + plan.start,
                           targets.begin() + plan.start + plan.bn);
    }
  }
  PrepareSampledBatches(specs_, scratch_.get(), slots_.data());
  MetricsRegistry::Global().RecordSpan(metrics.prepare_span,
                                       SecondsSince(start));
  metrics.produced.Increment(end - begin);
}

double Trainer::RunSampledPass(int epoch, Adam* opt, bool* ran) {
  const bool training = opt != nullptr;
  const int64_t batch_size = options_.train.batch_size;
  const auto num_samples = [training](const TrainTask& task) {
    return training ? task.NumTrain() : task.NumVal();
  };

  // Batch ids are assigned in (task, offset) order — a pure function of
  // the data, so each batch's sampling stream is stable across runs,
  // thread counts and pipeline depths. The plans are fixed before any
  // batch is prepared.
  plans_.clear();
  uint64_t batch_id = 0;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const int64_t n = num_samples(tasks_[t]);
    for (int64_t start = 0; start < n; start += batch_size) {
      BatchPlan plan;
      plan.task = static_cast<int>(t);
      plan.start = start;
      plan.bn = std::min(batch_size, n - start);
      // Training: keyed on (run seed, epoch, stable batch id). Validation:
      // on (seed, task, batch) — deliberately NOT the epoch.
      plan.seed =
          training
              ? MixSeed(options_.seed, static_cast<uint64_t>(epoch),
                        batch_id++)
              : MixSeed(options_.seed ^ kValSalt, static_cast<uint64_t>(t),
                        static_cast<uint64_t>(start / batch_size));
      plans_.push_back(plan);
    }
  }
  if (plans_.empty()) return 0.0;
  *ran = true;

  // Batches prepared together: depths 0 and 1 prepare one at a time.
  const int64_t group = std::max(options_.train.pipeline_depth, 1);
  if (slots_.size() < static_cast<size_t>(group)) {
    slots_.resize(static_cast<size_t>(group));
  }
  if (scratch_ == nullptr) {
    scratch_ = std::make_unique<BatchScratch>(
        store_, FanoutsOrDefault(options_.train.fanouts, gnn_->num_layers()));
  }

  PrepMetrics& metrics = Prep();
  Series* batch_loss_series =
      training ? &MetricsRegistry::Global().GetSeries("grimp.batch.train_loss")
               : nullptr;
  double loss_sum = 0.0;
  int current_task = plans_.front().task;
  double task_loss_sum = 0.0;
  // Task-boundary flush: the sample-weighted mean over a task's batches ==
  // the task's mean loss, the same quantity the full-graph passes report
  // per task, accumulated in task order.
  const auto flush_task = [&]() {
    loss_sum += task_loss_sum /
                static_cast<double>(
                    num_samples(tasks_[static_cast<size_t>(current_task)]));
  };
  const auto num_plans = static_cast<int64_t>(plans_.size());
  for (int64_t begin = 0; begin < num_plans; begin += group) {
    const int64_t end = std::min(num_plans, begin + group);
    // The previous batch's tape closures borrow its slot's adjacency and
    // index storage: drop them before the group refills the slots.
    tape_.Reset();
    PrepareGroup(begin, end, !training);
    for (int64_t b = begin; b < end; ++b) {
      const BatchPlan& plan = plans_[static_cast<size_t>(b)];
      if (plan.task != current_task) {
        flush_task();
        task_loss_sum = 0.0;
        current_task = plan.task;
      }
      tape_.Reset();
      PreparedBatch& batch = slots_[static_cast<size_t>(b - begin)];
      const TrainTask& task = tasks_[static_cast<size_t>(plan.task)];
      Tape::VarId out = ForwardBatch(&tape_, *gnn_, *shared_, *task.head,
                                     *node_features_, batch, num_cols_,
                                     options_.dim, &gnn_scratch_,
                                     &head_scratch_);
      Tape::VarId loss = TaskLoss(&tape_, task, options_.focal_gamma, out,
                                  batch.labels, batch.targets);
      const double loss_value = tape_.value(loss).scalar();
      if (training) {
        tape_.BackwardFrom(loss, One());
        TraceSpan step_span("train.step");
        opt->ClipGradNorm(options_.grad_clip);
        opt->Step();
        opt->ZeroGrad();
        step_span.Stop();
        ++summary_.steps_run;
        batch_loss_series->Append(loss_value);
      }
      task_loss_sum += loss_value * static_cast<double>(plan.bn);
      metrics.consumed.Increment();
    }
  }
  flush_task();
  return loss_sum;
}

Result<TrainSummary> Trainer::Run(const TrainCallbacks& callbacks,
                                  bool warm_start) {
  GRIMP_CHECK(!ran_) << "Trainer::Run is single-shot";
  ran_ = true;
  const auto t0 = Now();
  TraceSpan prepare_span("train.prepare");
  const bool sampled = options_.train.mode == TrainMode::kSampled;
  // A warm start scores the incoming weights with the sampled validation
  // pass; full mode validates only inside a training epoch.
  GRIMP_CHECK(!warm_start || sampled) << "warm start needs sampled mode";
  summary_ = TrainSummary{};
  summary_.mode = options_.train.mode;

  params_.clear();
  if (options_.use_gnn) gnn_->CollectParameters(&params_);
  shared_->CollectParameters(&params_);
  for (TrainTask& task : tasks_) task.head->CollectParameters(&params_);
  for (const Parameter* p : params_) {
    summary_.num_parameters += p->value.size();
  }
  for (const TrainTask& task : tasks_) {
    summary_.num_train_samples += task.NumTrain();
    summary_.num_val_samples += task.NumVal();
  }

  // Full-mode passes read only the rows the tasks' indices name, through
  // the tasks' own lists moved here and remapped onto those rows.
  if (!sampled) {
    BuildReadSet(tasks_, node_features_->rows(), &read_rows_, &read_idx_);
    grad_reduce_.Build(std::span(read_idx_).first(tasks_.size()),
                       static_cast<int64_t>(read_rows_.size()), num_cols_);
  }

  Adam opt(params_, options_.learning_rate);
  int epochs_since_best = 0;
  prepare_span.Stop();

  // Warm start: the incoming weights compete in the early-stopping
  // comparison like an epoch-0 result, so fine-tuning can only improve the
  // published model (by validation loss), never regress it.
  if (warm_start) {
    bool has_val = false;
    const double initial = RunSampledPass(/*epoch=*/0, /*opt=*/nullptr,
                                          &has_val);
    if (has_val) KeepIfBest(initial);
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("grimp.num_parameters")
      .Set(static_cast<double>(summary_.num_parameters));
  Series& train_loss_series = registry.GetSeries("grimp.epoch.train_loss");
  Series& val_loss_series = registry.GetSeries("grimp.epoch.val_loss");
  Series& epoch_seconds_series = registry.GetSeries("grimp.epoch.seconds");

  TraceSpan train_span("grimp.train");
  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    const auto epoch_start = Now();
    EpochResult er;
    if (sampled) {
      er.train_loss = RunSampledPass(epoch, &opt, &er.trained);
      // Validation scores the weights after the epoch's last step (a run
      // without validation samples has no batch to score).
      if (er.trained) {
        er.val_loss = RunSampledPass(epoch, /*opt=*/nullptr, &er.has_val);
        er.improved = er.has_val && KeepIfBest(er.val_loss);
      }
    } else {
      er = RunFullEpoch(&opt);
    }
    if (!er.trained) break;  // nothing to train on
    summary_.final_train_loss = er.train_loss;
    summary_.epochs_run = epoch + 1;

    if (options_.verbose && epoch % 10 == 0) {
      GRIMP_LOG(Info) << "train epoch " << epoch << " train_loss "
                      << summary_.final_train_loss << " val_loss "
                      << er.val_loss;
    }
    // Early stopping on the summed validation loss.
    bool stop_early = false;
    if (er.improved) {
      epochs_since_best = 0;
    } else if (er.has_val && ++epochs_since_best >= options_.patience) {
      stop_early = true;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = summary_.final_train_loss;
    stats.val_loss = er.val_loss;
    stats.has_val = er.has_val;
    stats.improved = er.improved;
    stats.seconds = SecondsSince(epoch_start);
    train_loss_series.Append(stats.train_loss);
    if (stats.has_val) val_loss_series.Append(stats.val_loss);
    epoch_seconds_series.Append(stats.seconds);
    bool keep_going = true;
    if (callbacks.on_epoch_end) {
      keep_going = callbacks.on_epoch_end(stats);
    }
    if (stop_early || !keep_going) break;
  }
  train_span.Stop();
  if (!best_params_.empty()) {
    for (size_t i = 0; i < params_.size(); ++i) {
      params_[i]->value = best_params_[i];
    }
    summary_.best_val_loss = best_val_;
  }
  summary_.train_seconds = SecondsSince(t0);
  return summary_;
}

}  // namespace grimp
