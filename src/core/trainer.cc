#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "graph/sampler.h"
#include "tensor/arena.h"
#include "tensor/optimizer.h"

namespace grimp {

namespace {

constexpr int kDefaultFanout = 10;

std::chrono::steady_clock::time_point Now() {
  return std::chrono::steady_clock::now();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(Now() - t0).count();
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
      num_cols_(num_cols) {
  GRIMP_CHECK(store_ != nullptr);
  GRIMP_CHECK(node_features_ != nullptr);
  GRIMP_CHECK(shared_ != nullptr);
  GRIMP_CHECK(!options_.use_gnn || gnn_ != nullptr);
  GRIMP_CHECK_GT(num_cols_, 0);
  // Full mode (and full-graph validation) runs whole-graph forwards, which
  // only an in-memory store can serve.
  GRIMP_CHECK(options_.train.mode == TrainMode::kSampled ||
              store_->full_graph() != nullptr);
}

Trainer::EpochResult Trainer::RunFullEpoch(Adam* opt, double* val_loss_sum,
                                           bool* has_val) {
  const int dim = options_.dim;
  EpochResult result;
  tape_.Reset();  // reuse node slots from the previous epoch
  Tape& tape = tape_;
  Tape::VarId feats = tape.Constant(*node_features_);
  Tape::VarId h = options_.use_gnn
                      ? gnn_->Forward(&tape, feats, *store_->full_graph())
                      : feats;
  Tape::VarId h_shared = shared_->Forward(&tape, h);

  Tape::VarId total_loss = -1;
  for (TrainTask& task : tasks_) {
    // Borrowing overloads throughout: the task's index/label/target vectors
    // are Trainer members, alive well past the tape's backward pass.
    auto task_forward = [&](const std::vector<int32_t>& idx) {
      const int64_t n = static_cast<int64_t>(idx.size()) / num_cols_;
      Tape::VarId flat = tape.GatherRows(h_shared, &idx);
      Tape::VarId vecs =
          tape.Reshape(flat, n, static_cast<int64_t>(num_cols_) * dim);
      return task.head->Forward(&tape, vecs);
    };
    auto task_loss = [&](Tape::VarId out, const std::vector<int32_t>& labels,
                         const std::vector<float>& targets) {
      if (task.categorical) {
        return options_.focal_gamma > 0.0f
                   ? tape.FocalLoss(out, &labels, options_.focal_gamma)
                   : tape.SoftmaxCrossEntropy(out, &labels);
      }
      return tape.MseLoss(out, &targets);
    };
    if (!task.train_idx.empty()) {
      Tape::VarId out = task_forward(task.train_idx);
      Tape::VarId loss =
          task_loss(out, task.train_labels, task.train_targets);
      total_loss = total_loss < 0 ? loss : tape.Add(total_loss, loss);
    }
    if (!task.val_idx.empty()) {
      Tape::VarId out = task_forward(task.val_idx);
      Tape::VarId loss = task_loss(out, task.val_labels, task.val_targets);
      *val_loss_sum += tape.value(loss).scalar();
      *has_val = true;
    }
  }
  if (total_loss < 0) return result;  // nothing to train on
  result.train_loss = tape.value(total_loss).scalar();
  tape.Backward(total_loss);
  opt->ClipGradNorm(options_.grad_clip);
  opt->Step();
  opt->ZeroGrad();
  ++summary_.steps_run;
  result.trained = true;
  return result;
}

void Trainer::EnsurePipeline() {
  if (pipeline_ != nullptr) return;
  std::vector<int> fanouts = options_.train.fanouts;
  if (fanouts.empty()) {
    fanouts.assign(static_cast<size_t>(gnn_->num_layers()), kDefaultFanout);
  }
  pipeline_ = std::make_unique<BatchPipeline>(
      BatchPipeline::ResolveDepth(options_.train.pipeline_depth), store_,
      std::move(fanouts));
}

void Trainer::PrepareBatch(const BatchPlan& plan, bool validation,
                           PreparedBatch* out,
                           const PipelineScratch& scratch) const {
  const TrainTask& task = tasks_[static_cast<size_t>(plan.task)];
  const std::vector<int32_t>& task_idx =
      validation ? task.val_idx : task.train_idx;
  const int32_t* idx =
      task_idx.data() + plan.start * static_cast<int64_t>(num_cols_);
  const int64_t idx_len = plan.bn * static_cast<int64_t>(num_cols_);
  Rng rng(plan.seed);
  std::vector<int32_t>& seed_local = *scratch.seed_local;

  // Seeds: the distinct non-masked cell nodes this batch gathers, in
  // first-seen order (the sampler requires distinct seeds; the order
  // fixes the block's local ids).
  TraceSpan sample_span("train.sample");
  out->seeds.clear();
  for (int64_t i = 0; i < idx_len; ++i) {
    const int32_t node = idx[i];
    if (node < 0) continue;
    int32_t& slot = seed_local[static_cast<size_t>(node)];
    if (slot < 0) {
      slot = static_cast<int32_t>(out->seeds.size());
      out->seeds.push_back(node);
    }
  }
  // A batch of fully-masked vectors still trains its head (on zero
  // vectors); feed the sampler a dummy seed so the forward type-checks.
  if (out->seeds.empty()) out->seeds.push_back(0);
  scratch.sampler->Sample(out->seeds, &rng, &out->sub);
  sample_span.Stop();

  // Gather the receptive field's input features into a compact matrix.
  TraceSpan gather_span("train.gather");
  out->feats = GatherFeatureRows(*node_features_, out->sub.input_nodes);
  out->local_idx.resize(static_cast<size_t>(idx_len));
  for (int64_t i = 0; i < idx_len; ++i) {
    out->local_idx[static_cast<size_t>(i)] =
        idx[i] < 0 ? -1 : seed_local[static_cast<size_t>(idx[i])];
  }
  // Restore the dense seed remap for this scratch's next batch. (The
  // dummy-seed case clears node 0's slot, which was already -1: harmless.)
  for (const int32_t node : out->seeds) {
    seed_local[static_cast<size_t>(node)] = -1;
  }
  gather_span.Stop();

  out->bn = plan.bn;
  if (task.categorical) {
    const std::vector<int32_t>& labels =
        validation ? task.val_labels : task.train_labels;
    out->labels.assign(labels.begin() + plan.start,
                       labels.begin() + plan.start + plan.bn);
  } else {
    const std::vector<float>& targets =
        validation ? task.val_targets : task.train_targets;
    out->targets.assign(targets.begin() + plan.start,
                        targets.begin() + plan.start + plan.bn);
  }
}

Trainer::EpochResult Trainer::RunSampledEpoch(int epoch, Adam* opt) {
  const int dim = options_.dim;
  const int64_t batch_size = options_.train.batch_size;
  EnsurePipeline();
  Series& batch_loss_series =
      MetricsRegistry::Global().GetSeries("grimp.batch.train_loss");

  EpochResult result;
  // Batch ids are assigned in (task, offset) order — a pure function of
  // the training data, so each batch's sampling stream is stable across
  // runs, thread counts and pipeline depths. The plans are fixed before
  // the pipeline starts; producers only ever read them.
  plans_.clear();
  uint64_t batch_id = 0;
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const int64_t n = tasks_[t].NumTrain();
    if (n == 0) continue;
    for (int64_t start = 0; start < n; start += batch_size) {
      BatchPlan plan;
      plan.task = static_cast<int>(t);
      plan.start = start;
      plan.bn = std::min(batch_size, n - start);
      // Keyed on (run seed, epoch, stable batch id): the sampled blocks,
      // and therefore the losses, are identical at every thread count.
      plan.seed = MixSeed(options_.seed, static_cast<uint64_t>(epoch),
                          batch_id++);
      plans_.push_back(plan);
    }
  }
  if (plans_.empty()) return result;

  pipeline_->Begin(
      static_cast<int64_t>(plans_.size()),
      [this](int64_t b, PreparedBatch* out, const PipelineScratch& scratch) {
        PrepareBatch(plans_[static_cast<size_t>(b)], /*validation=*/false,
                     out, scratch);
      });
  int current_task = plans_.front().task;
  double task_loss_sum = 0.0;
  // Task-boundary flush: the sample-weighted mean over a task's batches ==
  // the task's mean loss, the same quantity full mode reports per task,
  // accumulated in task order exactly like the serial loop.
  const auto flush_task = [&]() {
    result.train_loss +=
        task_loss_sum /
        static_cast<double>(tasks_[static_cast<size_t>(current_task)]
                                .NumTrain());
  };
  for (const BatchPlan& plan : plans_) {
    if (plan.task != current_task) {
      flush_task();
      task_loss_sum = 0.0;
      current_task = plan.task;
    }
    // Reset before taking the next batch: the previous batch's tape
    // closures borrow the pipeline slot's adjacency/index storage, and
    // Next() is what releases that slot for recycling.
    tape_.Reset();
    PreparedBatch& batch = pipeline_->Next();
    TrainTask& task = tasks_[static_cast<size_t>(plan.task)];

    Tape& tape = tape_;
    Tape::VarId feats = tape.Constant(std::move(batch.feats));
    Tape::VarId h = gnn_->ForwardBlocks(&tape, feats, batch.sub);
    Tape::VarId h_shared = shared_->Forward(&tape, h);
    // Borrowing overloads: the index/label/target buffers live in the
    // pipeline slot, alive until the next batch's Reset + Next() — no
    // per-step copies.
    Tape::VarId flat = tape.GatherRows(h_shared, &batch.local_idx);
    Tape::VarId vecs =
        tape.Reshape(flat, plan.bn, static_cast<int64_t>(num_cols_) * dim);
    Tape::VarId out = task.head->Forward(&tape, vecs);
    Tape::VarId loss;
    if (task.categorical) {
      loss = options_.focal_gamma > 0.0f
                 ? tape.FocalLoss(out, &batch.labels, options_.focal_gamma)
                 : tape.SoftmaxCrossEntropy(out, &batch.labels);
    } else {
      loss = tape.MseLoss(out, &batch.targets);
    }
    const double loss_value = tape.value(loss).scalar();
    tape.Backward(loss);
    opt->ClipGradNorm(options_.grad_clip);
    opt->Step();
    opt->ZeroGrad();
    ++summary_.steps_run;
    result.trained = true;
    batch_loss_series.Append(loss_value);
    task_loss_sum += loss_value * static_cast<double>(plan.bn);
  }
  flush_task();
  pipeline_->End();
  return result;
}

double Trainer::ValidationLoss(bool* has_val) {
  const int dim = options_.dim;
  tape_.Reset();
  Tape& tape = tape_;
  Tape::VarId feats = tape.Constant(*node_features_);
  Tape::VarId h = options_.use_gnn
                      ? gnn_->Forward(&tape, feats, *store_->full_graph())
                      : feats;
  Tape::VarId h_shared = shared_->Forward(&tape, h);
  double val_loss_sum = 0.0;
  for (const TrainTask& task : tasks_) {
    if (task.val_idx.empty()) continue;
    const int64_t n =
        static_cast<int64_t>(task.val_idx.size()) / num_cols_;
    Tape::VarId flat = tape.GatherRows(h_shared, &task.val_idx);
    Tape::VarId vecs =
        tape.Reshape(flat, n, static_cast<int64_t>(num_cols_) * dim);
    Tape::VarId out = task.head->Forward(&tape, vecs);
    Tape::VarId loss;
    if (task.categorical) {
      loss = options_.focal_gamma > 0.0f
                 ? tape.FocalLoss(out, &task.val_labels,
                                  options_.focal_gamma)
                 : tape.SoftmaxCrossEntropy(out, &task.val_labels);
    } else {
      loss = tape.MseLoss(out, &task.val_targets);
    }
    val_loss_sum += tape.value(loss).scalar();
    *has_val = true;
  }
  return val_loss_sum;
}

double Trainer::SampledValidationLoss(bool* has_val) {
  const int dim = options_.dim;
  const int64_t batch_size = options_.train.batch_size;
  EnsurePipeline();
  // Salt separating validation streams from training streams.
  constexpr uint64_t kValSalt = 0x76616c6964ULL;  // "valid"
  plans_.clear();
  for (size_t t = 0; t < tasks_.size(); ++t) {
    const int64_t n = tasks_[t].NumVal();
    if (n == 0) continue;
    for (int64_t start = 0; start < n; start += batch_size) {
      BatchPlan plan;
      plan.task = static_cast<int>(t);
      plan.start = start;
      plan.bn = std::min(batch_size, n - start);
      // Streams are a pure function of (seed, task, batch) — deliberately
      // NOT of the epoch — so every epoch scores the same sampled
      // receptive fields and the early-stopping comparison is stable.
      plan.seed = MixSeed(options_.seed ^ kValSalt, static_cast<uint64_t>(t),
                          static_cast<uint64_t>(start / batch_size));
      plans_.push_back(plan);
    }
  }
  if (plans_.empty()) return 0.0;

  pipeline_->Begin(
      static_cast<int64_t>(plans_.size()),
      [this](int64_t b, PreparedBatch* out, const PipelineScratch& scratch) {
        PrepareBatch(plans_[static_cast<size_t>(b)], /*validation=*/true,
                     out, scratch);
      });
  double val_loss_sum = 0.0;
  int current_task = plans_.front().task;
  double task_loss_sum = 0.0;
  // Sample-weighted mean over each task's batches == the task's mean
  // loss, the same quantity full-graph validation reports per task.
  const auto flush_task = [&]() {
    val_loss_sum +=
        task_loss_sum /
        static_cast<double>(
            tasks_[static_cast<size_t>(current_task)].NumVal());
  };
  for (const BatchPlan& plan : plans_) {
    if (plan.task != current_task) {
      flush_task();
      task_loss_sum = 0.0;
      current_task = plan.task;
    }
    tape_.Reset();
    PreparedBatch& batch = pipeline_->Next();
    const TrainTask& task = tasks_[static_cast<size_t>(plan.task)];

    Tape& tape = tape_;
    Tape::VarId feats = tape.Constant(std::move(batch.feats));
    Tape::VarId h = gnn_->ForwardBlocks(&tape, feats, batch.sub);
    Tape::VarId h_shared = shared_->Forward(&tape, h);
    Tape::VarId flat = tape.GatherRows(h_shared, &batch.local_idx);
    Tape::VarId vecs =
        tape.Reshape(flat, plan.bn, static_cast<int64_t>(num_cols_) * dim);
    Tape::VarId out = task.head->Forward(&tape, vecs);
    Tape::VarId loss;
    if (task.categorical) {
      loss = options_.focal_gamma > 0.0f
                 ? tape.FocalLoss(out, &batch.labels, options_.focal_gamma)
                 : tape.SoftmaxCrossEntropy(out, &batch.labels);
    } else {
      loss = tape.MseLoss(out, &batch.targets);
    }
    task_loss_sum += tape.value(loss).scalar() * static_cast<double>(plan.bn);
  }
  flush_task();
  pipeline_->End();
  *has_val = true;
  return val_loss_sum;
}

Result<TrainSummary> Trainer::Run(const TrainCallbacks& callbacks) {
  const auto t0 = Now();
  const bool sampled = options_.train.mode == TrainMode::kSampled;
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

  Adam opt(params_, options_.learning_rate);
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<Tensor> best_params;
  int epochs_since_best = 0;

  // Warm start: the incoming weights compete in the early-stopping
  // comparison like an epoch-0 result, so fine-tuning can only improve the
  // published model (by validation loss), never regress it.
  if (options_.train.warm_start && summary_.num_val_samples > 0) {
    bool has_val = false;
    const double initial = store_->full_graph() != nullptr
                               ? ValidationLoss(&has_val)
                               : SampledValidationLoss(&has_val);
    if (has_val) {
      best_val = initial;
      best_params.reserve(params_.size());
      for (Parameter* p : params_) best_params.push_back(p->value);
    }
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
    double val_loss_sum = 0.0;
    bool has_val = false;
    EpochResult er;
    if (sampled) {
      er = RunSampledEpoch(epoch, &opt);
      if (er.trained && summary_.num_val_samples > 0) {
        // Whole-graph validation when the store can serve it (matches full
        // mode exactly); minibatched sampled validation otherwise (sharded
        // stores have no full graph by design). Skipped outright with no
        // validation samples — the whole-graph forward is not free.
        val_loss_sum = store_->full_graph() != nullptr
                           ? ValidationLoss(&has_val)
                           : SampledValidationLoss(&has_val);
      }
    } else {
      er = RunFullEpoch(&opt, &val_loss_sum, &has_val);
    }
    if (!er.trained) break;  // nothing to train on
    summary_.final_train_loss = er.train_loss;
    summary_.epochs_run = epoch + 1;

    if (options_.verbose && epoch % 10 == 0) {
      GRIMP_LOG(Info) << "train epoch " << epoch << " train_loss "
                      << summary_.final_train_loss << " val_loss "
                      << val_loss_sum;
    }
    // Early stopping on the summed validation loss.
    bool improved = false;
    bool stop_early = false;
    if (has_val) {
      if (val_loss_sum < best_val - 1e-6) {
        improved = true;
        best_val = val_loss_sum;
        epochs_since_best = 0;
        best_params.clear();
        best_params.reserve(params_.size());
        for (Parameter* p : params_) best_params.push_back(p->value);
      } else if (++epochs_since_best >= options_.patience) {
        stop_early = true;
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = summary_.final_train_loss;
    stats.val_loss = val_loss_sum;
    stats.has_val = has_val;
    stats.improved = improved;
    stats.seconds = SecondsSince(epoch_start);
    train_loss_series.Append(stats.train_loss);
    if (has_val) val_loss_series.Append(stats.val_loss);
    epoch_seconds_series.Append(stats.seconds);
    bool keep_going = true;
    if (callbacks.on_epoch_end) {
      keep_going = callbacks.on_epoch_end(stats);
    }
    if (stop_early || !keep_going) break;
  }
  train_span.Stop();
  if (!best_params.empty()) {
    for (size_t i = 0; i < params_.size(); ++i) {
      params_[i]->value = best_params[i];
    }
    summary_.best_val_loss = best_val;
  }
  summary_.train_seconds = SecondsSince(t0);
  TensorArena::Global().PublishMetrics();
  return summary_;
}

}  // namespace grimp
