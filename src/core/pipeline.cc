#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/options.h"

namespace grimp {

namespace {

// Pipeline telemetry, resolved once (registry lookup takes a mutex). All
// registry objects are thread-safe, so producers and the consumer update
// them without extra locking.
struct PipelineMetrics {
  Counter& produced;
  Counter& consumed;
  Counter& stalls;
  Gauge& queue_depth;
  Histogram& wait_micros;
};

PipelineMetrics& Metrics() {
  static PipelineMetrics metrics{
      MetricsRegistry::Global().GetCounter("train.pipeline.produced"),
      MetricsRegistry::Global().GetCounter("train.pipeline.consumed"),
      MetricsRegistry::Global().GetCounter("train.pipeline.stalls"),
      MetricsRegistry::Global().GetGauge("train.pipeline.queue_depth"),
      MetricsRegistry::Global().GetHistogram("train.pipeline.wait_micros")};
  return metrics;
}

}  // namespace

BatchPipeline::BatchPipeline(int depth, const GraphStore* store,
                             std::vector<int> fanouts)
    : depth_(depth), store_(store), fanouts_(std::move(fanouts)) {
  GRIMP_CHECK(store_ != nullptr);
  GRIMP_CHECK(depth_ >= 0 && depth_ <= TrainConfig::kMaxPipelineDepth)
      << "pipeline depth " << depth_;
  slots_.resize(static_cast<size_t>(depth_) + 1);
  // More producers than the lookahead can never claim work; beyond a few,
  // extra threads only add O(num_nodes) dense-remap scratch per sampler.
  const int num_producers = std::min(depth_, 4);
  producers_ = std::vector<Producer>(static_cast<size_t>(num_producers));
  for (Producer& p : producers_) {
    p.thread = std::thread([this, &p]() { ProducerMain(&p); });
  }
}

BatchPipeline::~BatchPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  producer_cv_.notify_all();
  for (Producer& p : producers_) {
    if (p.thread.joinable()) p.thread.join();
  }
}

BatchScratch* BatchPipeline::Scratch(std::unique_ptr<BatchScratch>* scratch) {
  if (*scratch == nullptr) {
    *scratch = std::make_unique<BatchScratch>(store_, fanouts_);
  }
  return scratch->get();
}

void BatchPipeline::Begin(int64_t total_batches, PrepareFn prepare) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    GRIMP_CHECK(!running_);
    prepare_ = std::move(prepare);
    total_ = total_batches;
    next_claim_ = 0;
    consume_next_ = 0;
    freed_ = 0;
    produced_ = 0;
    running_ = true;
  }
  producer_cv_.notify_all();
}

void BatchPipeline::ProducerMain(Producer* self) {
  // Inline-only: this thread's nested ParallelFors (shard loads inside the
  // sampler's Prefetch, the feature gather) run on this thread instead of
  // competing with the consumer's GEMMs for pool workers.
  ThreadPool::MarkCallerInlineOnly();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    producer_cv_.wait(lock, [&]() {
      return stop_ ||
             (running_ && next_claim_ < total_ &&
              next_claim_ < freed_ + static_cast<int64_t>(slots_.size()));
    });
    if (stop_) return;
    const int64_t b = next_claim_++;
    ++active_;
    lock.unlock();

    Slot& slot = slots_[static_cast<size_t>(
        b % static_cast<int64_t>(slots_.size()))];
    {
      TraceSpan prepare_span("train.pipeline.prepare");
      prepare_(b, &slot.batch, Scratch(&self->scratch));
    }

    lock.lock();
    slot.ready_batch = b;
    ++produced_;
    --active_;
    Metrics().produced.Increment();
    ready_cv_.notify_all();
    idle_cv_.notify_all();
  }
}

PreparedBatch& BatchPipeline::Next() {
  PipelineMetrics& metrics = Metrics();
  if (producers_.empty()) {
    // Serial degenerate case: prepare inline, no locking (no threads).
    GRIMP_CHECK(running_);
    GRIMP_CHECK_LT(consume_next_, total_);
    const int64_t k = consume_next_++;
    Slot& slot = slots_[static_cast<size_t>(
        k % static_cast<int64_t>(slots_.size()))];
    prepare_(k, &slot.batch, Scratch(&inline_scratch_));
    metrics.produced.Increment();
    metrics.consumed.Increment();
    return slot.batch;
  }

  std::unique_lock<std::mutex> lock(mu_);
  GRIMP_CHECK(running_);
  GRIMP_CHECK_LT(consume_next_, total_);
  const int64_t k = consume_next_++;
  // Entering Next(k) releases batch k-1's slot (the consumer has dropped
  // its borrows, per the contract), unblocking the producer of batch
  // k-1 + slots.
  freed_ = k;
  producer_cv_.notify_all();
  Slot& slot = slots_[static_cast<size_t>(
      k % static_cast<int64_t>(slots_.size()))];
  if (slot.ready_batch != k) {
    metrics.stalls.Increment();
    TraceSpan wait_span("train.pipeline.wait");
    const auto t0 = std::chrono::steady_clock::now();
    ready_cv_.wait(lock, [&]() { return slot.ready_batch == k; });
    metrics.wait_micros.Record(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
  } else {
    metrics.wait_micros.Record(0.0);
  }
  metrics.consumed.Increment();
  metrics.queue_depth.Set(static_cast<double>(produced_ - (k + 1)));
  return slot.batch;
}

void BatchPipeline::End() {
  if (producers_.empty()) {
    running_ = false;
    prepare_ = nullptr;
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Cancel batches no producer has claimed yet, then wait out the ones in
  // flight (they write slots the consumer no longer reads — harmless, but
  // they must not outlive prepare_ or the caller's closure state).
  total_ = next_claim_;
  idle_cv_.wait(lock, [&]() { return active_ == 0; });
  running_ = false;
  prepare_ = nullptr;
  for (Slot& slot : slots_) slot.ready_batch = -1;
}

}  // namespace grimp
