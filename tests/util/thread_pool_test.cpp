#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace whisk::util {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 200;
  for (int threads : {1, 2, 4, static_cast<int>(kCount) + 3}) {
    std::vector<std::atomic<int>> hits(kCount);
    ThreadPool::parallel_for(kCount, threads,
                             [&](std::size_t i, int /*worker*/) { hits[i]++; });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " on " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelForTest, ZeroCountNeverCallsTheBody) {
  for (int threads : {1, 4}) {
    std::atomic<int> calls{0};
    ThreadPool::parallel_for(0, threads,
                             [&](std::size_t, int) { calls++; });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ParallelForTest, WorkerIdsLieBelowMinOfThreadsAndCount) {
  for (auto [count, threads] : {std::pair<std::size_t, int>{100, 3},
                                {5, 8},
                                {1, 4}}) {
    const int workers = std::min(threads, static_cast<int>(count));
    std::vector<std::atomic<int>> worker_of(count);
    for (auto& w : worker_of) w = -1;
    ThreadPool::parallel_for(count, threads, [&](std::size_t i, int worker) {
      worker_of[i] = worker;
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_GE(worker_of[i].load(), 0);
      EXPECT_LT(worker_of[i].load(), workers)
          << "count " << count << ", threads " << threads;
    }
  }
}

TEST(ParallelForTest, OneThreadRunsOnTheCallerInIndexOrder) {
  // run_campaign's in-index-order flush buffer relies on execution tracking
  // index order; with one thread it is exactly the serial loop.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ThreadPool::parallel_for(50, 1, [&](std::size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ParallelForDeath, RejectsFewerThanOneThread) {
  for (int threads : {0, -1}) {
    EXPECT_DEATH(ThreadPool::parallel_for(3, threads, [](std::size_t, int) {}),
                 "at least one thread");
  }
}

}  // namespace
}  // namespace whisk::util
