// WorkerPool: barrier semantics, caller-as-worker-0, exception
// propagation (first-worker-wins), reuse across many run() calls, the
// for_chunks partition and the reentrancy guard.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ckat::util {
namespace {

TEST(WorkerPool, ClampsThreadCountToAtLeastOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkerPool, SizeOnePoolRunsOnCallingThread) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  std::size_t worker_seen = 99;
  pool.run([&](std::size_t worker) {
    seen = std::this_thread::get_id();
    worker_seen = worker;
  });
  EXPECT_EQ(seen, caller);
  EXPECT_EQ(worker_seen, 0u);
}

TEST(WorkerPool, EveryWorkerRunsExactlyOncePerJob) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t worker) { ++hits[worker]; });
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
  }
}

TEST(WorkerPool, RunIsABarrier) {
  WorkerPool pool(4);
  // Disjoint slot writes during the job; the reduction after run() must
  // observe every write -- that is the whole contract.
  std::vector<int> slots(64, 0);
  pool.run([&](std::size_t worker) {
    for (std::size_t s = worker; s < slots.size(); s += pool.size()) {
      slots[s] = static_cast<int>(s) + 1;
    }
  });
  const int sum = std::accumulate(slots.begin(), slots.end(), 0);
  EXPECT_EQ(sum, 64 * 65 / 2);
}

TEST(WorkerPool, ReusableAcrossManyJobs) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run([&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50 * 3);
}

TEST(WorkerPool, WorkerExceptionReachesCaller) {
  WorkerPool pool(4);
  try {
    pool.run([](std::size_t worker) {
      if (worker == 2) {
        throw std::runtime_error("boom from worker 2");
      }
    });
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from worker 2");
  }
  // The pool survives a throwing job and keeps serving.
  std::atomic<int> count{0};
  pool.run([&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(WorkerPool, LowestIndexedWorkersExceptionWins) {
  WorkerPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.run([](std::size_t worker) {
        throw std::runtime_error("worker " + std::to_string(worker));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker 0");
    }
  }
}

TEST(WorkerPool, CallerExceptionOnSizeOnePool) {
  WorkerPool pool(1);
  EXPECT_THROW(
      pool.run([](std::size_t) { throw std::logic_error("serial"); }),
      std::logic_error);
  std::atomic<int> count{0};
  pool.run([&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(WorkerPool, ForChunksVisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kChunk = 8;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    WorkerPool pool(threads);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
          10 * kChunk + 3}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<bool> bad_range{false};
      pool.for_chunks(n, kChunk, [&](std::size_t begin, std::size_t end) {
        // Every range is one whole chunk of the fixed partition.
        if (begin % kChunk != 0 || end <= begin ||
            end != std::min(n, begin + kChunk)) {
          bad_range = true;
        }
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      EXPECT_FALSE(bad_range.load()) << "threads=" << threads << " n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " index " << i;
      }
    }
  }
}

TEST(WorkerPool, ForChunksStaysOnCallingThreadAtSizeOne) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> begins;
  pool.for_chunks(50, 8, [&](std::size_t begin, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    begins.push_back(begin);
  });
  // In chunk order, too.
  EXPECT_EQ(begins, (std::vector<std::size_t>{0, 8, 16, 24, 32, 40, 48}));
}

TEST(WorkerPool, ForChunksRejectsZeroChunk) {
  WorkerPool pool(2);
  EXPECT_THROW(pool.for_chunks(4, 0, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

TEST(WorkerPool, RunFromInsideOwnJobThrowsLogicError) {
  for (const std::size_t threads : {2u, 4u}) {
    WorkerPool pool(threads);
    // Every worker -- the caller as worker 0 and the pool threads --
    // re-enters; each gets a logic_error instead of a dead barrier.
    std::atomic<int> refused{0};
    pool.run([&](std::size_t) {
      try {
        pool.run([](std::size_t) {});
      } catch (const std::logic_error&) {
        ++refused;
      }
    });
    EXPECT_EQ(refused.load(), static_cast<int>(threads));
    // A nested fan-out through for_chunks is refused the same way.
    EXPECT_THROW(pool.for_chunks(64, 1,
                                 [&](std::size_t, std::size_t) {
                                   pool.for_chunks(64, 1, [](std::size_t,
                                                             std::size_t) {});
                                 }),
                 std::logic_error);
    // The pool is still usable afterwards.
    std::atomic<int> count{0};
    pool.run([&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), static_cast<int>(threads));
  }
}

TEST(WorkerPool, AffinityCpuCountIsPositive) {
  EXPECT_GE(affinity_cpu_count(), 1u);
}

}  // namespace
}  // namespace ckat::util
