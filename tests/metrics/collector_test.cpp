#include "metrics/collector.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/stats.h"

namespace whisk::metrics {
namespace {

CallRecord rec(workload::CallId id, workload::FunctionId fn, double release,
               double completion, StartKind kind = StartKind::kWarm) {
  CallRecord r;
  r.id = id;
  r.function = fn;
  r.release = release;
  r.received = release + 0.005;
  r.exec_start = release + 0.01;
  r.exec_end = completion - 0.01;
  r.completion = completion;
  r.service = r.exec_end - r.exec_start;
  r.start_kind = kind;
  return r;
}

class CollectorTest : public ::testing::Test {
 protected:
  workload::FunctionCatalog cat_ = workload::sebs_catalog();
  Collector col_{cat_};
};

TEST_F(CollectorTest, StartsEmpty) {
  EXPECT_EQ(col_.size(), 0u);
  EXPECT_EQ(col_.max_completion(), 0.0);
  EXPECT_TRUE(col_.response_times().empty());
}

TEST_F(CollectorTest, ResponseIsCompletionMinusRelease) {
  col_.add(rec(0, 0, 1.0, 3.5));
  const auto rs = col_.response_times();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_DOUBLE_EQ(rs[0], 2.5);
}

TEST_F(CollectorTest, StretchUsesReferenceMedian) {
  const auto sleep = *cat_.find("sleep");  // reference median 1.022 s
  col_.add(rec(0, sleep, 0.0, 2.044));
  const auto ss = col_.stretches();
  ASSERT_EQ(ss.size(), 1u);
  EXPECT_NEAR(ss[0], 2.0, 1e-9);
}

TEST_F(CollectorTest, StretchCanBeBelowOne) {
  // The paper's stretch reference is a client-side median, so faster-than-
  // median calls get stretch < 1 (Sec. V-A).
  const auto sleep = *cat_.find("sleep");
  col_.add(rec(0, sleep, 0.0, 0.9));
  EXPECT_LT(col_.stretches()[0], 1.0);
}

TEST_F(CollectorTest, PerFunctionFiltering) {
  const auto a = *cat_.find("graph-bfs");
  const auto b = *cat_.find("sleep");
  col_.add(rec(0, a, 0.0, 1.0));
  col_.add(rec(1, b, 0.0, 2.0));
  col_.add(rec(2, a, 0.0, 3.0));
  EXPECT_EQ(col_.calls_of(a), 2u);
  EXPECT_EQ(col_.calls_of(b), 1u);
  EXPECT_EQ(col_.response_times_of(a).size(), 2u);
  EXPECT_EQ(col_.stretches_of(b).size(), 1u);
}

TEST_F(CollectorTest, PerFunctionQueriesPreserveInsertionOrder) {
  // The per-function index must return exactly what the old full scans
  // returned: values in insertion order, interleavings untangled.
  const auto a = *cat_.find("graph-bfs");
  const auto b = *cat_.find("sleep");
  col_.add(rec(0, a, 0.0, 3.0));
  col_.add(rec(1, b, 0.0, 9.0));
  col_.add(rec(2, a, 0.0, 1.0));
  col_.add(rec(3, a, 0.0, 2.0));
  EXPECT_EQ(col_.response_times_of(a), (std::vector<double>{3.0, 1.0, 2.0}));
  EXPECT_EQ(col_.response_times_of(b), (std::vector<double>{9.0}));
  // Unknown / never-seen functions answer empty, not out-of-bounds.
  EXPECT_TRUE(col_.response_times_of(workload::kInvalidFunction).empty());
  EXPECT_EQ(col_.calls_of(static_cast<workload::FunctionId>(10000)), 0u);
}

TEST_F(CollectorTest, MaxCompletion) {
  col_.add(rec(0, 0, 0.0, 5.0));
  col_.add(rec(1, 1, 0.0, 17.5));
  col_.add(rec(2, 2, 0.0, 3.0));
  EXPECT_DOUBLE_EQ(col_.max_completion(), 17.5);
}

TEST_F(CollectorTest, StartKindCounters) {
  col_.add(rec(0, 0, 0.0, 1.0, StartKind::kWarm));
  col_.add(rec(1, 0, 0.0, 1.0, StartKind::kCold));
  col_.add(rec(2, 0, 0.0, 1.0, StartKind::kCold));
  col_.add(rec(3, 0, 0.0, 1.0, StartKind::kPrewarm));
  EXPECT_EQ(col_.warm_starts(), 1u);
  EXPECT_EQ(col_.cold_starts(), 2u);
  EXPECT_EQ(col_.prewarm_starts(), 1u);
}

TEST_F(CollectorTest, SummariesAggregate) {
  for (int i = 1; i <= 10; ++i) {
    col_.add(rec(i, 0, 0.0, static_cast<double>(i)));
  }
  const auto sum = util::summarize(col_.response_times());
  EXPECT_EQ(sum.count, 10u);
  EXPECT_DOUBLE_EQ(sum.mean, 5.5);
  EXPECT_DOUBLE_EQ(sum.max, 10.0);
}

TEST_F(CollectorTest, StartKindNames) {
  EXPECT_STREQ(to_string(StartKind::kWarm), "warm");
  EXPECT_STREQ(to_string(StartKind::kPrewarm), "prewarm");
  EXPECT_STREQ(to_string(StartKind::kCold), "cold");
}

TEST_F(CollectorTest, QueueWaitDerived) {
  auto r = rec(0, 0, 1.0, 3.0);
  r.received = 1.1;
  r.exec_start = 1.7;
  EXPECT_NEAR(r.queue_wait(), 0.6, 1e-12);
}

// A terminal record that never executed: shed at admission or dropped
// after the attempt bound.
CallRecord refused(workload::CallId id, Disposition d, int attempts = 1) {
  CallRecord r;
  r.id = id;
  r.function = 0;
  r.node = -1;
  r.release = 1.0;
  r.received = 1.0;
  r.exec_start = 1.0;
  r.exec_end = 1.0;
  r.completion = 1.5;
  r.attempts = attempts;
  r.disposition = d;
  return r;
}

TEST_F(CollectorTest, DispositionCountersPartitionSize) {
  col_.add(rec(0, 0, 0.0, 1.0));
  col_.add(refused(1, Disposition::kShed));
  col_.add(refused(2, Disposition::kDropped, /*attempts=*/4));
  col_.add(rec(3, 0, 0.0, 2.0));
  EXPECT_EQ(col_.size(), 4u);
  EXPECT_EQ(col_.ok_calls(), 2u);
  EXPECT_EQ(col_.shed_calls(), 1u);
  EXPECT_EQ(col_.dropped_calls(), 1u);
  EXPECT_EQ(col_.ok_calls() + col_.shed_calls() + col_.dropped_calls(),
            col_.size());
}

TEST_F(CollectorTest, LatencyMetricsCoverOkRecordsOnly) {
  col_.add(rec(0, 0, 0.0, 1.0));
  col_.add(refused(1, Disposition::kShed));
  col_.add(refused(2, Disposition::kDropped, /*attempts=*/3));
  // Shed/dropped records stay out of every latency distribution: their
  // "response" is a refusal time, not a service observation.
  EXPECT_EQ(col_.response_times().size(), 1u);
  EXPECT_EQ(col_.stretches().size(), 1u);
  EXPECT_EQ(util::summarize(col_.response_times()).count, 1u);
  EXPECT_DOUBLE_EQ(col_.max_completion(), 1.0);
  EXPECT_EQ(col_.calls_of(0), 1u);
}

TEST_F(CollectorTest, AttemptsFeedResubmissionAccounting) {
  auto r = rec(0, 0, 0.0, 1.0);
  r.attempts = 3;  // completed on the third try
  col_.add(r);
  col_.add(rec(1, 0, 0.0, 1.0));               // first-try completion
  col_.add(refused(2, Disposition::kDropped, /*attempts=*/4));
  EXPECT_EQ(col_.resubmitted_calls(), 2u);
  EXPECT_EQ(col_.resubmissions(), 2u + 3u);
}

TEST(CollectorDeath, RejectsCompletionBeforeRelease) {
  const auto cat = workload::sebs_catalog();
  Collector col(cat);
  CallRecord r = rec(0, 0, 5.0, 6.0);
  r.completion = 4.0;
  EXPECT_DEATH(col.add(r), "completion");
}

TEST(CollectorDeath, RejectsAttemptsBelowOne) {
  const auto cat = workload::sebs_catalog();
  Collector col(cat);
  CallRecord r = rec(0, 0, 0.0, 1.0);
  r.attempts = 0;
  EXPECT_DEATH(col.add(r), "attempts");
}

TEST(CollectorDeath, RejectsRefusedRecordWithExecutionInterval) {
  const auto cat = workload::sebs_catalog();
  Collector col(cat);
  // A shed call that claims it executed violates the ok-only invariant the
  // latency metrics rely on.
  CallRecord r = rec(0, 0, 0.0, 1.0);
  r.disposition = Disposition::kShed;
  EXPECT_DEATH(col.add(r), "execution interval");
}

TEST_F(CollectorTest, RepetitionsPoolByConcatenation) {
  // The paper aggregates "all individual calls from all 5 sequences of
  // calls": pooling repetitions is appending their samples in order.
  Collector second(cat_);
  col_.add(rec(0, 0, 0.0, 1.0));
  col_.add(rec(1, 0, 0.0, 2.0));
  second.add(rec(0, 0, 0.0, 3.0));
  std::vector<double> pooled = col_.response_times();
  const auto more = second.response_times();
  pooled.insert(pooled.end(), more.begin(), more.end());
  EXPECT_EQ(pooled, (std::vector<double>{1.0, 2.0, 3.0}));
  const auto sum = util::summarize(pooled);
  EXPECT_EQ(sum.count, 3u);
  EXPECT_DOUBLE_EQ(sum.mean, 2.0);
}

}  // namespace
}  // namespace whisk::metrics
