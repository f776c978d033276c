#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/env.h"
#include "common/metrics.h"

namespace grimp {

namespace {

// Dispatch counters, resolved once (registry lookup takes a mutex).
struct PoolMetrics {
  Counter& parallel_for;
  Counter& inline_for;
  Counter& chunks;
  Counter& parks;
  Gauge& threads;
};

PoolMetrics& PoolCounters() {
  static PoolMetrics metrics{
      MetricsRegistry::Global().GetCounter("threadpool.parallel_for"),
      MetricsRegistry::Global().GetCounter("threadpool.inline_for"),
      MetricsRegistry::Global().GetCounter("threadpool.chunks"),
      MetricsRegistry::Global().GetCounter("threadpool.parks"),
      MetricsRegistry::Global().GetGauge("threadpool.threads")};
  return metrics;
}

// Set while a thread (worker OR submitting caller) is executing chunk
// bodies; nested ParallelFor calls from inside a chunk body run inline
// instead of re-entering the pool (a worker would deadlock the loop, the
// caller would self-deadlock on submit_mu_).
thread_local bool g_in_parallel_region = false;

int g_global_override = 0;  // 0 == not set; guarded by g_global_mu
std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;

int DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
  return EnvOverrides::PositiveInt(kEnvNumThreads, fallback);
}

// How long a thread waiting on the pool spins before it sleeps. In sampled
// training, 98% of the gaps between consecutive loops are under 100 µs and
// 99.4% under 200 µs (DESIGN.md §5), so workers stay awake through a step
// while an idle pool still sleeps.
constexpr auto kSpinBound = std::chrono::microseconds(200);
// Pauses between yields, so spinning threads cede an oversubscribed core.
// A yield is a syscall worth ~17 pauses (0.44 µs against 25 ns on a 4-vCPU
// Sapphire Rapids VM), so yielding every 64 keeps a spinner mostly paused.
constexpr int kYieldEvery = 64;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Polls `ready` for up to kSpinBound; returns whether it became true.
template <typename Ready>
bool SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBound;
  for (int i = 1;; ++i) {
    if (ready()) return true;
    CpuRelax();
    if (i % kYieldEvery == 0) {
      std::this_thread::yield();
      if (std::chrono::steady_clock::now() >= deadline) return ready();
    }
  }
}

int64_t NumChunks(int64_t begin, int64_t end, int64_t grain) {
  const int64_t n = end - begin;
  return n <= 0 ? 0 : (n + grain - 1) / grain;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  // The calling thread participates in every loop, so spawn one fewer
  // worker than the requested concurrency.
  const int spawn = num_threads_ - 1;
  workers_.reserve(static_cast<size_t>(spawn));
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back([this]() { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  epoch_.fetch_add(1);  // wakes spinners; stop_ is visible with the bump
  epoch_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(ForLoop* loop) {
  for (;;) {
    const int64_t c = loop->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= loop->num_chunks) return;
    const int64_t b = loop->begin + c * loop->grain;
    const int64_t e = std::min(loop->end, b + loop->grain);
    (*loop->fn)(b, e);
  }
}

uint32_t ThreadPool::AwaitEpoch(uint32_t seen) {
  uint32_t epoch = seen;
  if (SpinUntil([&]() {
        epoch = epoch_.load(std::memory_order_acquire);
        return epoch != seen;
      })) {
    return epoch;
  }
  // Registering as parked before re-reading epoch_ pairs with the
  // submitter's bump-then-read of parked_: either this read sees the bump
  // or the submitter sees parked_ > 0 and notifies.
  parked_.fetch_add(1);
  if (epoch_.load() == seen) {
    PoolCounters().parks.Increment();
    epoch_.wait(seen);
  }
  parked_.fetch_sub(1);
  return epoch_.load();
}

void ThreadPool::WorkerMain() {
  g_in_parallel_region = true;
  uint32_t seen_epoch = 0;
  for (;;) {
    seen_epoch = AwaitEpoch(seen_epoch);
    if (stop_.load()) return;
    // Register before reading loop_: the submitter retracts loop_ before it
    // reads active_workers_, so it either sees this worker or this worker
    // sees the retraction (or a later loop, which is live).
    active_workers_.fetch_add(1);
    if (ForLoop* loop = loop_.load()) RunChunks(loop);
    if (active_workers_.fetch_sub(1) == 1 && joiner_blocked_.load()) {
      active_workers_.notify_one();
    }
  }
}

void ThreadPool::AwaitWorkersDone() {
  if (SpinUntil([&]() { return active_workers_.load() == 0; })) return;
  // Flag-then-read pairs with the last worker's decrement-then-read of the
  // flag, so a worker that brings the count to zero sees the flag or the
  // count read here sees zero.
  joiner_blocked_.store(true);
  for (int active = active_workers_.load(); active != 0;
       active = active_workers_.load()) {
    active_workers_.wait(active);
  }
  joiner_blocked_.store(false);
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             FunctionRef<void(int64_t, int64_t)> fn) {
  grain = std::max<int64_t>(1, grain);
  const int64_t chunks = NumChunks(begin, end, grain);
  if (chunks <= 0) return;
  // Inline paths: trivial loop, no workers, or nested call from a chunk
  // body (re-entering the pool would deadlock). Chunk boundaries are
  // identical to the parallel path, so results match.
  PoolMetrics& metrics = PoolCounters();
  metrics.chunks.Increment(chunks);
  if (chunks == 1 || num_threads_ == 1 || g_in_parallel_region) {
    metrics.inline_for.Increment();
    ForLoop loop;
    loop.begin = begin;
    loop.end = end;
    loop.grain = grain;
    loop.fn = &fn;
    loop.num_chunks = chunks;
    RunChunks(&loop);
    return;
  }

  metrics.parallel_for.Increment();
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  ForLoop loop;
  loop.begin = begin;
  loop.end = end;
  loop.grain = grain;
  loop.fn = &fn;
  loop.num_chunks = chunks;
  loop_.store(&loop);
  epoch_.fetch_add(1);
  if (parked_.load() > 0) epoch_.notify_all();
  // The caller works too. Mark it as inside the region so its own chunk
  // bodies nest inline.
  g_in_parallel_region = true;
  RunChunks(&loop);
  g_in_parallel_region = false;
  // Every chunk has been claimed once the caller's RunChunks returns; once
  // no worker still holds the retracted pointer, every chunk body has
  // finished and `loop` (a stack object) is safe to destroy.
  loop_.store(nullptr);
  AwaitWorkersDone();
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (!g_global_pool) {
    const int n = g_global_override > 0 ? g_global_override : DefaultThreads();
    g_global_pool = std::make_unique<ThreadPool>(n);
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_global_override = std::max(1, num_threads);
  if (g_global_pool && g_global_pool->num_threads() == g_global_override) {
    return;
  }
  g_global_pool.reset();  // rebuilt lazily at the requested size
}

int ThreadPool::GlobalThreads() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_global_pool) return g_global_pool->num_threads();
  return g_global_override > 0 ? g_global_override : DefaultThreads();
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn) {
  ThreadPool::Global().ParallelFor(begin, end, grain, fn);
}

bool InParallelRegion() { return g_in_parallel_region; }

bool ShouldParallelize(int64_t n) {
  return n >= kParallelThreshold && ThreadPool::GlobalThreads() > 1;
}

void RecordThreadPoolMetrics() {
  PoolCounters().threads.Set(
      static_cast<double>(ThreadPool::GlobalThreads()));
}

}  // namespace grimp
