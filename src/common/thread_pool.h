#ifndef GRIMP_COMMON_THREAD_POOL_H_
#define GRIMP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace grimp {

// Non-owning reference to a callable, for synchronous calls only: it
// stores the callable's address and a trampoline, never a copy, so binding
// a lambda of any capture size costs no heap allocation (std::function
// allocates beyond its small buffer). The referenced callable must outlive
// every call through the reference; binding a temporary lambda in a call
// argument is fine because the temporary lives until the call returns.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(F&& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

// Fixed-size worker pool with a deterministic chunked parallel-for.
//
// Determinism contract: ParallelFor splits [begin, end) into chunks whose
// boundaries depend only on (begin, end, grain) — never on the number of
// threads or on scheduling order. Chunks write to disjoint index ranges, so
// any kernel whose chunk bodies touch only their own indices produces
// bit-identical results at every thread count (1 worker and N workers run
// the exact same chunk list, just interleaved differently in time). A
// reduction stays independent of thread count the same way: one partial
// per chunk, combined in ascending chunk order on the calling thread.
//
// Hand-off: a loop is published with one atomic epoch_ bump. Between loops
// a worker spins on epoch_ for up to kSpinBound = 200 µs (pausing, and
// yielding every kYieldEvery pauses so an oversubscribed host progresses),
// then parks in epoch_.wait() and counts one "threadpool.parks". The
// submitter calls epoch_.notify_all() only when a worker is parked. (A
// condition variable's broadcast can block its caller until the waiters of
// the previous broadcast have run, which costs hundreds of µs on a VM
// whose idle vCPUs wake slowly.) After running chunks itself, the
// submitter retracts loop_ and waits for active_workers_ to drain: a
// bounded spin, then a block that the last worker out wakes only if the
// submitter is blocked. A worker registers in active_workers_ before it reads loop_, and
// the submitter clears loop_ before it reads active_workers_ (all seq_cst),
// so no worker can enter a loop whose stack frame has returned.
class ThreadPool {
 public:
  // Creates `num_threads` workers. num_threads <= 1 means "no workers":
  // all work runs inline on the calling thread.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(chunk_begin, chunk_end) over static chunks of [begin, end).
  // `grain` is the target chunk length (clamped to >= 1). Blocks until all
  // chunks are done. Safe to call from inside a worker (nested calls run
  // inline on the caller to avoid deadlock); concurrent calls from
  // different external threads serialize on an internal mutex.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   FunctionRef<void(int64_t, int64_t)> fn);

  // The process-wide pool. Sized on first use from GRIMP_NUM_THREADS (env)
  // or std::thread::hardware_concurrency(). SetGlobalThreads() resizes it
  // (call before/between parallel regions, not during one).
  static ThreadPool& Global();
  static void SetGlobalThreads(int num_threads);
  // Thread count the global pool would use if created now (env var /
  // explicit override / hardware default), without forcing creation.
  static int GlobalThreads();

 private:
  struct ForLoop {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    const FunctionRef<void(int64_t, int64_t)>* fn = nullptr;
    std::atomic<int64_t> next_chunk{0};
    int64_t num_chunks = 0;
  };

  void WorkerMain();
  static void RunChunks(ForLoop* loop);
  // Spins, then parks, until epoch_ differs from `seen`; returns it.
  uint32_t AwaitEpoch(uint32_t seen);
  // Spins, then blocks, until no worker holds the retracted loop.
  void AwaitWorkersDone();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // Written once per loop by the submitter, polled by spinning workers.
  // 32 bits so that parked workers wait on it directly (a futex word); a
  // worker compares it only for inequality, so wrap-around is harmless.
  alignas(64) std::atomic<uint32_t> epoch_{0};
  std::atomic<ForLoop*> loop_{nullptr};  // current loop, null when retracted
  std::atomic<bool> stop_{false};  // set before the destructor's epoch bump
  // Read-modify-written by every worker on every loop.
  alignas(64) std::atomic<int> active_workers_{0};  // workers inside a loop
  std::atomic<bool> joiner_blocked_{false};  // submitter blocked on drain
  std::atomic<int> parked_{0};  // workers parked, or about to, on epoch_

  std::mutex submit_mu_;  // serializes external ParallelFor callers
};

// Convenience wrappers over ThreadPool::Global(). Work smaller than
// `min_size` (total indices) runs inline without touching the pool.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn);

// True on a thread running ParallelFor chunk bodies (a pool worker, or a
// submitter inside its own loop), where a nested ParallelFor runs inline.
bool InParallelRegion();

// True when [0, n) is worth parallelizing (pool has >1 thread and n is at
// least kParallelThreshold).
bool ShouldParallelize(int64_t n);

// Publishes the pool's configuration and dispatch counters into the metrics
// registry: gauge "threadpool.threads" plus counters
// "threadpool.parallel_for" (loops fanned out to workers),
// "threadpool.inline_for" (loops run on the calling thread),
// "threadpool.chunks" (total chunks executed) and "threadpool.parks"
// (times a worker outwaited its spin and slept until the next loop). The counters update on every
// ParallelFor; calling this just makes sure the keys exist and refreshes
// the thread-count gauge, so metric consumers see them even when no loop
// was big enough to dispatch.
void RecordThreadPoolMetrics();

// Elementwise loops below this many indices run serially: pool dispatch
// costs ~a few microseconds, which swamps small kernels.
inline constexpr int64_t kParallelThreshold = 4096;

}  // namespace grimp

#endif  // GRIMP_COMMON_THREAD_POOL_H_
