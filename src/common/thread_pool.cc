#include "common/thread_pool.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/metrics.h"

namespace grimp {

namespace {

// Dispatch counters, resolved once (registry lookup takes a mutex).
struct PoolMetrics {
  Counter& parallel_for;
  Counter& inline_for;
  Counter& chunks;
  Gauge& threads;
};

PoolMetrics& PoolCounters() {
  static PoolMetrics metrics{
      MetricsRegistry::Global().GetCounter("threadpool.parallel_for"),
      MetricsRegistry::Global().GetCounter("threadpool.inline_for"),
      MetricsRegistry::Global().GetCounter("threadpool.chunks"),
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
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

void ThreadPool::WorkerMain() {
  g_in_parallel_region = true;
  uint64_t seen_epoch = 0;
  for (;;) {
    ForLoop* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&]() { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      loop = loop_;
      if (loop != nullptr) ++active_workers_;
    }
    if (loop != nullptr) {
      RunChunks(loop);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_workers_;
      }
      done_cv_.notify_all();
    }
  }
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_ = &loop;
    ++epoch_;
  }
  cv_.notify_all();
  // The caller works too — it usually finishes several chunks before the
  // workers have even woken up, which keeps small loops cheap. Mark it as
  // inside the region so its own chunk bodies nest inline.
  g_in_parallel_region = true;
  RunChunks(&loop);
  g_in_parallel_region = false;
  // The caller's RunChunks only returns once every chunk has been claimed,
  // so when no worker still holds the loop pointer, every chunk body has
  // finished and `loop` (a stack object) is safe to destroy.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&]() { return active_workers_ == 0; });
    loop_ = nullptr;
  }
}

double ThreadPool::ParallelReduce(
    int64_t begin, int64_t end, int64_t grain,
    FunctionRef<double(int64_t, int64_t)> fn,
    FunctionRef<double(double, double)> combine) {
  grain = std::max<int64_t>(1, grain);
  const int64_t chunks = NumChunks(begin, end, grain);
  if (chunks <= 0) return 0.0;
  // Partials live on the stack up to kStackPartials chunks, so a steady
  // state of small reductions (gradient clipping) never touches the heap.
  constexpr int64_t kStackPartials = 64;
  std::array<double, kStackPartials> stack_partials;
  std::vector<double> heap_partials;
  double* partials = stack_partials.data();
  if (chunks > kStackPartials) {
    heap_partials.resize(static_cast<size_t>(chunks));
    partials = heap_partials.data();
  }
  ParallelFor(begin, end, grain, [&](int64_t b, int64_t e) {
    partials[(b - begin) / grain] = fn(b, e);
  });
  double acc = partials[0];
  for (int64_t c = 1; c < chunks; ++c) {
    acc = combine(acc, partials[c]);
  }
  return acc;
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

bool ShouldParallelize(int64_t n) {
  return n >= kParallelThreshold && ThreadPool::GlobalThreads() > 1;
}

void RecordThreadPoolMetrics() {
  PoolCounters().threads.Set(
      static_cast<double>(ThreadPool::GlobalThreads()));
}

}  // namespace grimp
