#ifndef GRIMP_SERVE_SCHEDULER_H_
#define GRIMP_SERVE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "serve/model_registry.h"
#include "table/table.h"

namespace grimp {

struct SchedulerOptions {
  // Admission bound: Submit rejects with kUnavailable once this many
  // requests are queued (the caller should shed load or retry later).
  int max_queue = 256;
  // Most requests fused into one GrimpEngine::TransformMany call. 1
  // disables micro-batching (each request runs its own forward pass).
  int max_batch = 8;
  // After popping a request, a worker lingers up to this long for more
  // same-model requests to fill the batch. 0 batches opportunistically:
  // only what is already queued rides along (requests pile up naturally
  // while a batch executes, so 0 is usually right).
  double batch_linger_seconds = 0.0;
  // Batch-executing worker threads. The heavy math inside TransformMany
  // fans out onto the global compute ThreadPool regardless, so more
  // workers mainly help when graph building dominates.
  int num_workers = 1;
  // Deadline-aware load shedding at admission: a request whose deadline
  // cannot be met at the current queue depth (estimated from an EWMA of
  // recent batch execution times) is rejected immediately with
  // kDeadlineExceeded instead of wasting queue space it is doomed to time
  // out in. Requests without a deadline are never shed.
  bool shed_unmeetable_deadlines = true;
};

// One imputation request: a pinned model version plus a schema-compatible
// table (typically a single tuple). `deadline_seconds` is relative to
// Submit(); a request still queued when it expires is rejected with
// kDeadlineExceeded instead of executed. <= 0 means no deadline.
// `high_priority` selects the high lane of the two-lane queue: workers
// always drain high-lane requests first, and shedding estimates count only
// the traffic ahead of the request's own lane.
struct ImputeRequest {
  ModelHandle model;
  Table table;
  double deadline_seconds = 0.0;
  bool high_priority = false;
};

// Micro-batching request scheduler (the serving tentpole): admission
// control at Submit (bounded two-lane queue, schema check, deadline
// shedding, typed Status rejections), then worker threads that pop
// compatible requests — same pinned model version, high lane first — and
// fuse them into one TransformMany call. Batching never changes results:
// TransformMany is bit-identical per request to a solo call (see
// core/engine.h).
//
// Emitted metrics: span "serve.enqueue", histogram "serve.batch_size",
// span "serve.e2e_seconds" + histogram "serve.e2e_micros" (per-request
// end-to-end latency), gauges "serve.queue_depth" and
// "serve.ewma_batch_seconds", counters "serve.requests.<model>",
// "serve.lane.{high,normal}", "serve.completed", "serve.batches" and
// "serve.rejected.{queue_full,schema,deadline,shed,shutdown}".
class RequestScheduler {
 public:
  // Invoked exactly once per submitted request, with the imputed table or
  // a typed rejection. Runs inline on the submitting thread for admission
  // rejections and on a worker thread otherwise — implementations must be
  // thread-safe against the caller and must not block on the scheduler.
  using DoneCallback = std::function<void(Result<Table>)>;

  explicit RequestScheduler(SchedulerOptions options);
  ~RequestScheduler();  // implies Shutdown()

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  // Enqueues a request; `done` receives the result or the typed rejection
  // (queue full -> kUnavailable, schema mismatch -> kFailedPrecondition,
  // unmeetable/expired deadline -> kDeadlineExceeded, shut down ->
  // kUnavailable). Never blocks on model execution.
  void SubmitWith(ImputeRequest request, DoneCallback done);

  // Future-returning wrapper around SubmitWith.
  std::future<Result<Table>> Submit(ImputeRequest request);

  // Blocking convenience wrapper around Submit.
  Result<Table> Impute(ImputeRequest request);

  // Stops admission, drains every queued request through the workers, and
  // joins them. Idempotent; called by the destructor.
  void Shutdown();

  int64_t queue_depth() const;
  // EWMA of recent batch execution times (0 until a batch completes).
  double ewma_batch_seconds() const {
    return ewma_batch_seconds_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    ImputeRequest request;
    DoneCallback done;
    std::chrono::steady_clock::time_point enqueued_at;
    // time_point::max() when the request has no deadline.
    std::chrono::steady_clock::time_point deadline;
  };

  static constexpr int kHighLane = 0;
  static constexpr int kNormalLane = 1;

  void WorkerMain();
  // Pops up to max_batch requests pinning the same model version as the
  // oldest high-lane (else normal-lane) head. Caller holds mu_.
  std::vector<std::unique_ptr<Pending>> PopBatchLocked();
  void ExecuteBatch(std::vector<std::unique_ptr<Pending>> batch);
  void Complete(Pending* pending, Result<Table> result);
  int64_t DepthLocked() const {
    return static_cast<int64_t>(lanes_[0].size() + lanes_[1].size());
  }

  SchedulerOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Pending>> lanes_[2];
  std::vector<std::thread> workers_;
  std::atomic<double> ewma_batch_seconds_{0.0};
  bool shutdown_ = false;
};

}  // namespace grimp

#endif  // GRIMP_SERVE_SCHEDULER_H_
