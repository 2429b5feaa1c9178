#include "core/pending_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace whisk::core {
namespace {

TEST(PendingQueue, StartsEmpty) {
  PendingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(PendingQueue, PopsInPriorityOrder) {
  PendingQueue<int> q;
  q.push(3.0, 3);
  q.push(1.0, 1);
  q.push(2.0, 2);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(PendingQueue, EqualPrioritiesKeepInsertionOrder) {
  PendingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(5.0, i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(PendingQueue, StabilityMakesFifoPolicyExactlyFifo) {
  // FIFO keys are receive times which can collide; insertion order must
  // break the tie.
  PendingQueue<std::string> q;
  q.push(1.0, "a");
  q.push(1.0, "b");
  q.push(0.5, "c");
  q.push(1.0, "d");
  EXPECT_EQ(q.pop(), "c");
  EXPECT_EQ(q.pop(), "a");
  EXPECT_EQ(q.pop(), "b");
  EXPECT_EQ(q.pop(), "d");
}

TEST(PendingQueue, NegativePrioritiesWork) {
  PendingQueue<int> q;
  q.push(0.0, 0);
  q.push(-1.0, -1);
  EXPECT_EQ(q.pop(), -1);
}

TEST(PendingQueue, MoveOnlyValues) {
  PendingQueue<std::unique_ptr<int>> q;
  q.push(2.0, std::make_unique<int>(2));
  q.push(1.0, std::make_unique<int>(1));
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
}

TEST(PendingQueueDeath, PopEmptyAborts) {
  PendingQueue<int> q;
  EXPECT_DEATH(q.pop(), "empty");
}

// Property: popping yields nondecreasing priorities for arbitrary inputs.
class QueueOrdering : public ::testing::TestWithParam<int> {};

TEST_P(QueueOrdering, NondecreasingPriorities) {
  PendingQueue<double> q;
  unsigned state = static_cast<unsigned>(GetParam()) * 2246822519u + 1u;
  for (int i = 0; i < 500; ++i) {
    state = state * 1664525u + 1013904223u;
    const double p = static_cast<double>(state % 1000) / 10.0;
    q.push(p, p);
  }
  double prev = -1.0;
  while (!q.empty()) {
    const double got = q.pop();
    ASSERT_GE(got, prev);
    prev = got;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueOrdering, ::testing::Range(0, 5));

}  // namespace
}  // namespace whisk::core
