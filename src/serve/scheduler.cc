#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace grimp {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

// Smoothing factor for the batch-execution-time EWMA driving load
// shedding: heavy enough to track a shifting batch-size mix, light enough
// that one outlier batch does not shed a burst of healthy requests.
constexpr double kEwmaAlpha = 0.2;

}  // namespace

RequestScheduler::RequestScheduler(SchedulerOptions options)
    : options_(options) {
  options_.max_queue = std::max(1, options_.max_queue);
  options_.max_batch = std::max(1, options_.max_batch);
  options_.num_workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

RequestScheduler::~RequestScheduler() { Shutdown(); }

void RequestScheduler::SubmitWith(ImputeRequest request, DoneCallback done) {
  GRIMP_TRACE_SPAN("serve.enqueue");
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (!request.model) {
    done(Status::InvalidArgument("request has no model"));
    return;
  }
  registry.GetCounter("serve.requests." + request.model.name()).Increment();
  // Admission checks run before enqueue, so a bad request can never poison
  // the micro-batch it would have joined.
  if (Status compat = request.model.engine().CheckCompatible(request.table);
      !compat.ok()) {
    registry.GetCounter("serve.rejected.schema").Increment();
    done(std::move(compat));
    return;
  }

  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->done = std::move(done);
  pending->enqueued_at = std::chrono::steady_clock::now();
  pending->deadline =
      pending->request.deadline_seconds > 0.0
          ? pending->enqueued_at +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        pending->request.deadline_seconds))
          : std::chrono::steady_clock::time_point::max();

  const int lane = pending->request.high_priority ? kHighLane : kNormalLane;
  registry.GetCounter(lane == kHighLane ? "serve.lane.high"
                                        : "serve.lane.normal")
      .Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      registry.GetCounter("serve.rejected.shutdown").Increment();
      pending->done(Status::Unavailable("scheduler is shut down"));
      return;
    }
    if (DepthLocked() >= options_.max_queue) {
      registry.GetCounter("serve.rejected.queue_full").Increment();
      pending->done(Status::Unavailable(
          "serve queue is full (" + std::to_string(DepthLocked()) +
          " requests pending, limit " + std::to_string(options_.max_queue) +
          ")"));
      return;
    }
    // Deadline-aware shedding: estimate this request's queueing delay from
    // the traffic ahead of it (its own lane plus, for normal-lane
    // requests, everything in the high lane) and the EWMA batch execution
    // time. A request that would expire before a worker can reach it is
    // rejected now — a typed, immediate "no" instead of a doomed wait that
    // also delays everyone behind it.
    const double ewma = ewma_batch_seconds_.load(std::memory_order_relaxed);
    if (options_.shed_unmeetable_deadlines &&
        pending->request.deadline_seconds > 0.0 && ewma > 0.0) {
      const int64_t ahead =
          static_cast<int64_t>(lanes_[kHighLane].size()) +
          (lane == kNormalLane
               ? static_cast<int64_t>(lanes_[kNormalLane].size())
               : 0);
      const double batches_ahead = std::ceil(
          static_cast<double>(ahead + 1) /
          static_cast<double>(options_.max_batch));
      const double est_wait =
          batches_ahead * ewma / static_cast<double>(options_.num_workers);
      if (est_wait > pending->request.deadline_seconds) {
        registry.GetCounter("serve.rejected.shed").Increment();
        pending->done(Status::DeadlineExceeded(
            "shed at admission: estimated wait " +
            std::to_string(static_cast<int64_t>(est_wait * 1e3)) +
            " ms exceeds deadline " +
            std::to_string(static_cast<int64_t>(
                pending->request.deadline_seconds * 1e3)) +
            " ms (" + std::to_string(ahead) + " queued ahead)"));
        return;
      }
    }
    lanes_[lane].push_back(std::move(pending));
    registry.GetGauge("serve.queue_depth")
        .Set(static_cast<double>(DepthLocked()));
  }
  cv_.notify_one();
}

std::future<Result<Table>> RequestScheduler::Submit(ImputeRequest request) {
  auto promise = std::make_shared<std::promise<Result<Table>>>();
  std::future<Result<Table>> future = promise->get_future();
  SubmitWith(std::move(request), [promise](Result<Table> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

Result<Table> RequestScheduler::Impute(ImputeRequest request) {
  return Submit(std::move(request)).get();
}

void RequestScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

int64_t RequestScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DepthLocked();
}

std::vector<std::unique_ptr<RequestScheduler::Pending>>
RequestScheduler::PopBatchLocked() {
  std::vector<std::unique_ptr<Pending>> batch;
  const int head_lane =
      !lanes_[kHighLane].empty() ? kHighLane : kNormalLane;
  if (lanes_[head_lane].empty()) return batch;
  const void* model_id = lanes_[head_lane].front()->request.model.id();
  // Same-model requests join the batch in lane order (high first), so a
  // full batch always carries every compatible high-lane request before
  // any normal-lane one.
  for (int lane : {kHighLane, kNormalLane}) {
    auto& queue = lanes_[lane];
    for (auto it = queue.begin();
         it != queue.end() &&
         static_cast<int>(batch.size()) < options_.max_batch;) {
      if ((*it)->request.model.id() == model_id) {
        batch.push_back(std::move(*it));
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  MetricsRegistry::Global()
      .GetGauge("serve.queue_depth")
      .Set(static_cast<double>(DepthLocked()));
  return batch;
}

void RequestScheduler::WorkerMain() {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || DepthLocked() > 0; });
      if (DepthLocked() == 0) {
        if (shutdown_) return;
        continue;
      }
      if (options_.batch_linger_seconds > 0.0 &&
          DepthLocked() < static_cast<int64_t>(options_.max_batch) &&
          !shutdown_) {
        // Give concurrent clients one linger window to fill the batch;
        // stop early only once it is full (or on shutdown), so the window
        // is a predictable upper bound on added latency.
        const auto linger_until =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    options_.batch_linger_seconds));
        cv_.wait_until(lock, linger_until, [this] {
          return shutdown_ ||
                 DepthLocked() >= static_cast<int64_t>(options_.max_batch);
        });
      }
      batch = PopBatchLocked();
    }
    if (!batch.empty()) ExecuteBatch(std::move(batch));
  }
}

void RequestScheduler::ExecuteBatch(
    std::vector<std::unique_ptr<Pending>> batch) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const auto now = std::chrono::steady_clock::now();

  // Requests that expired while queued are rejected, not executed.
  std::vector<std::unique_ptr<Pending>> live;
  live.reserve(batch.size());
  for (std::unique_ptr<Pending>& pending : batch) {
    if (now > pending->deadline) {
      registry.GetCounter("serve.rejected.deadline").Increment();
      const double waited = SecondsSince(pending->enqueued_at, now);
      // Rejections bypass Complete() so the e2e latency metrics track only
      // requests that actually executed.
      pending->done(Status::DeadlineExceeded(
          "deadline expired after " +
          std::to_string(static_cast<int64_t>(waited * 1e3)) +
          " ms in queue (limit " +
          std::to_string(static_cast<int64_t>(
              pending->request.deadline_seconds * 1e3)) +
          " ms)"));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  registry.GetHistogram("serve.batch_size")
      .Record(static_cast<double>(live.size()));
  registry.GetCounter("serve.batches").Increment();

  const GrimpEngine& engine = live.front()->request.model.engine();
  std::vector<Table*> tables;
  tables.reserve(live.size());
  for (const auto& pending : live) tables.push_back(&pending->request.table);

  const auto exec_start = std::chrono::steady_clock::now();
  Status status = engine.TransformMany(
      std::span<Table* const>(tables.data(), tables.size()));
  const double batch_seconds =
      SecondsSince(exec_start, std::chrono::steady_clock::now());
  const double prev = ewma_batch_seconds_.load(std::memory_order_relaxed);
  const double ewma = prev == 0.0
                          ? batch_seconds
                          : (1.0 - kEwmaAlpha) * prev +
                                kEwmaAlpha * batch_seconds;
  ewma_batch_seconds_.store(ewma, std::memory_order_relaxed);
  registry.GetGauge("serve.ewma_batch_seconds").Set(ewma);

  if (status.ok()) {
    for (std::unique_ptr<Pending>& pending : live) {
      // The request table was imputed in place; hand it back without a
      // copy (the serve path's steady state allocates nothing per request
      // beyond the response itself).
      Complete(pending.get(), std::move(pending->request.table));
    }
    return;
  }
  if (live.size() == 1) {
    Complete(live[0].get(), std::move(status));
    return;
  }
  // Defensive fallback: admission should make whole-batch failures
  // impossible, but if one occurs, retry solo so a single bad request
  // cannot take down its batch-mates.
  registry.GetCounter("serve.batch_fallbacks").Increment();
  // A failed TransformMany leaves every table untouched, so each retry
  // starts from the original request.
  for (std::unique_ptr<Pending>& pending : live) {
    Table* table = &pending->request.table;
    Status solo = pending->request.model.engine().TransformMany({&table, 1});
    Complete(pending.get(), solo.ok() ? Result<Table>(std::move(*table))
                                      : Result<Table>(std::move(solo)));
  }
}

void RequestScheduler::Complete(Pending* pending, Result<Table> result) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const double e2e = SecondsSince(pending->enqueued_at,
                                  std::chrono::steady_clock::now());
  registry.RecordSpan("serve.e2e_seconds", e2e);
  // Log2 histogram buckets collapse sub-second values, so percentiles are
  // tracked in microseconds (see Histogram::ValueAtPercentile).
  registry.GetHistogram("serve.e2e_micros").Record(e2e * 1e6);
  registry.GetCounter(result.ok() ? "serve.completed" : "serve.errors")
      .Increment();
  pending->done(std::move(result));
}

}  // namespace grimp
