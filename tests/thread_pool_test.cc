#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace grimp {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    for (int64_t n : {0, 1, 5, 1000, 4097}) {
      for (int64_t grain : {1, 7, 64, 5000}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h.store(0);
        pool.ParallelFor(0, n, grain, [&](int64_t b, int64_t e) {
          EXPECT_LE(0, b);
          EXPECT_LE(b, e);
          EXPECT_LE(e, n);
          for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
        });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, NonZeroBeginIsRespected) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(37, 91, 5, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), (i >= 37 && i < 91) ? 1 : 0);
  }
}

TEST(ThreadPoolTest, NestedSubmitRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 64, 4, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Nested ParallelFor from inside a chunk body: must complete (inline
      // on this thread) rather than deadlock waiting for busy workers.
      pool.ParallelFor(0, 10, 2, [&](int64_t nb, int64_t ne) {
        total.fetch_add(ne - nb, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 64 * 10);
}

// Every chunk body of a fanned-out loop, on a worker or on the submitter,
// sees InParallelRegion(); the submitter's flag clears after the loop.
TEST(ThreadPoolTest, InParallelRegionHoldsInEveryChunkBody) {
  ThreadPool pool(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int> outside{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    if (!InParallelRegion()) outside.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(outside.load(), 0);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ThreadPoolTest, RepeatedRunsAreDeterministic) {
  // A chunk-local (non-commutative-order-sensitive) computation: record the
  // chunk boundary pattern and a per-index value derived from it. Both must
  // be identical across repeats and across thread counts, because chunk
  // boundaries depend only on (begin, end, grain).
  auto run = [](int threads) {
    ThreadPool pool(threads);
    const int64_t n = 10000;
    std::vector<int64_t> chunk_of(static_cast<size_t>(n), -1);
    pool.ParallelFor(0, n, 192, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) chunk_of[static_cast<size_t>(i)] = b;
    });
    return chunk_of;
  };
  const auto first = run(1);
  for (int threads : {1, 2, 7}) {
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_EQ(run(threads), first) << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, GlobalPoolHonorsOverride) {
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 257, 16, [&](int64_t b, int64_t e) {
      int64_t local = 0;
      for (int64_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 256 * 257 / 2);
  }
}

// --- Hand-off stress ---------------------------------------------------
// ThreadPoolStressTest.* also runs 200 times at GRIMP_NUM_THREADS=4
// (thread_pool_repeat) and at 16 threads on any host
// (thread_pool_test_oversubscribed).

// At least four lanes, more when GRIMP_NUM_THREADS asks for more.
int StressThreads() { return std::max(4, ThreadPool::GlobalThreads()); }

void SpinFor(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Runs one loop over [0, n) and checks that every index ran exactly once.
void RunCountedLoop(ThreadPool& pool, int64_t n, int64_t grain) {
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  pool.ParallelFor(0, n, grain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "i=" << i;
  }
}

// Runs one loop of n single-index chunks, each of which waits (for at most
// 5 s in all) until a pool worker, not the submitting thread, has entered a chunk: a
// worker that misses its wake-up fails it. Every index still runs once.
void RunLoopNeedingAWorker(ThreadPool& pool, int64_t n) {
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<bool> worker_ran{false};
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  pool.ParallelFor(0, n, 1, [&](int64_t b, int64_t e) {
    if (std::this_thread::get_id() != submitter) worker_ran.store(true);
    while (!worker_ran.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    for (int64_t i = b; i < e; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_TRUE(worker_ran.load()) << "no worker woke for the loop";
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "i=" << i;
  }
}

// Gaps below the workers' spin bound keep them spinning; an idle pool
// parks them. Both paths must run every index once, and a parked worker
// must wake for the next loop. Parks come from the
// idle gaps: across short gaps the workers take far fewer than the one
// park per loop each that a pool without the spin would.
TEST(ThreadPoolStressTest, SpinningAndParkedWorkersRunEveryIndexOnce) {
  const int threads = StressThreads();
  ThreadPool pool(threads);
  Counter& parks = MetricsRegistry::Global().GetCounter("threadpool.parks");
  RunCountedLoop(pool, 64, 1);  // workers are awake and spinning

  constexpr int kShortLoops = 200;
  const int64_t short_before = parks.value();
  for (int rep = 0; rep < kShortLoops; ++rep) {
    if (rep % 2 == 1) SpinFor(std::chrono::microseconds(20));
    RunCountedLoop(pool, 257, 4);
  }
  const int64_t short_parks = parks.value() - short_before;
  EXPECT_LT(short_parks, kShortLoops * (threads - 1) / 4)
      << "short-gap parks " << short_parks << " over " << kShortLoops
      << " loops";

  // Idle gaps: wait until a worker parks (a loaded host may keep a spinner
  // off its core longer than any fixed sleep), then submit. If every
  // worker parked before the wait began, it ends at its bound and the next
  // loop still finds them parked.
  const int64_t idle_before = parks.value();
  for (int rep = 0; rep < 4; ++rep) {
    const int64_t before = parks.value();
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (parks.value() == before &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    RunLoopNeedingAWorker(pool, 8);
    if (HasFailure()) return;
  }
  EXPECT_GT(parks.value(), idle_before);
}

TEST(ThreadPoolStressTest, ConcurrentExternalSubmitters) {
  ThreadPool pool(StressThreads());
  std::atomic<bool> go{false};
  auto submit = [&](int64_t n) {
    while (!go.load()) std::this_thread::yield();
    for (int rep = 0; rep < 100; ++rep) RunCountedLoop(pool, n + rep, 3);
  };
  std::thread a(submit, 97);
  std::thread b(submit, 131);
  go.store(true);
  a.join();
  b.join();
}

// Resizing the global pool destroys its workers whether they are spinning
// (right after a loop) or parked (after a long idle gap); no loop before
// or after a resize may hang or lose an index.
TEST(ThreadPoolStressTest, ResizeWhileWorkersSpinOrPark) {
  const int saved_threads = ThreadPool::GlobalThreads();
  const int wide = StressThreads();
  for (int rep = 0; rep < 6; ++rep) {
    ThreadPool::SetGlobalThreads(rep % 2 == 0 ? wide : 3);
    RunCountedLoop(ThreadPool::Global(), 1000, 16);
    if (rep % 3 == 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ThreadPool::SetGlobalThreads(rep % 2 == 0 ? 2 : wide);
    RunCountedLoop(ThreadPool::Global(), 1000, 16);
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

TEST(ThreadPoolStressTest, NestedLoopsAcrossSpinAndParkGaps) {
  ThreadPool pool(StressThreads());
  constexpr int64_t kOuter = 24;
  constexpr int64_t kInner = 37;
  for (int rep = 0; rep < 8; ++rep) {
    if (rep % 4 == 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<std::atomic<int>> hits(static_cast<size_t>(kOuter * kInner));
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.ParallelFor(0, kOuter, 1, [&](int64_t ob, int64_t oe) {
      for (int64_t o = ob; o < oe; ++o) {
        pool.ParallelFor(0, kInner, 5, [&](int64_t ib, int64_t ie) {
          for (int64_t i = ib; i < ie; ++i) {
            hits[static_cast<size_t>(o * kInner + i)].fetch_add(
                1, std::memory_order_relaxed);
          }
        });
      }
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace grimp
