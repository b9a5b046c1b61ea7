#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cpr::support {
namespace {

TEST(ThreadPool, ClampThreadsResolvesZeroAndNegativeToHardware) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int expect = hw > 0 ? hw : 1;
  EXPECT_EQ(ThreadPool::clampThreads(0), expect);
  EXPECT_EQ(ThreadPool::clampThreads(-3), expect);
  EXPECT_EQ(ThreadPool::clampThreads(1), 1);
  EXPECT_EQ(ThreadPool::clampThreads(5), 5);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallelFor(kCount, [&](int worker, std::size_t k) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.size());
    hits[k].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t k = 0; k < kCount; ++k) EXPECT_EQ(hits[k].load(), 1);
}

TEST(ThreadPool, SizeOneRunsInlineInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallelFor(16, [&](int worker, std::size_t k) {
    EXPECT_EQ(worker, 0);
    order.push_back(k);
  });
  std::vector<std::size_t> expect(16);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, CountZeroIsANoop) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallelFor(0, [&](int, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(64,
                       [&](int, std::size_t k) {
                         if (k == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must come back clean: the next wave covers everything again.
  std::vector<std::atomic<int>> hits(64);
  pool.parallelFor(64, [&](int, std::size_t k) {
    hits[k].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t k = 0; k < 64; ++k) EXPECT_EQ(hits[k].load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyWaves) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int wave = 0; wave < 50; ++wave) {
    pool.parallelFor(10, [&](int, std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 500);
}

}  // namespace
}  // namespace cpr::support
