#pragma once

// Field-by-field, bit-exact comparisons of util::Summary and GroupSummary
// values, so a failure names the field that differs.
#include <gtest/gtest.h>

#include "experiments/campaign.h"
#include "util/stats.h"

namespace whisk::experiments {

inline void expect_same_summary(const util::Summary& got,
                                const util::Summary& want, const char* what) {
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.mean, want.mean) << what;
  EXPECT_EQ(got.min, want.min) << what;
  EXPECT_EQ(got.p25, want.p25) << what;
  EXPECT_EQ(got.p50, want.p50) << what;
  EXPECT_EQ(got.p75, want.p75) << what;
  EXPECT_EQ(got.p95, want.p95) << what;
  EXPECT_EQ(got.p99, want.p99) << what;
  EXPECT_EQ(got.max, want.max) << what;
  EXPECT_EQ(got.stddev, want.stddev) << what;
}

inline void expect_same_group(const GroupSummary& got,
                              const GroupSummary& want) {
  EXPECT_EQ(got.group, want.group);
  EXPECT_EQ(got.calls, want.calls);
  EXPECT_EQ(got.ok_calls, want.ok_calls);
  EXPECT_EQ(got.cold_starts, want.cold_starts);
  EXPECT_EQ(got.max_completion, want.max_completion);
  expect_same_summary(got.response, want.response, "response");
  expect_same_summary(got.stretch, want.stretch, "stretch");
}

}  // namespace whisk::experiments
