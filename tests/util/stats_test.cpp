#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace whisk::util {
namespace {

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(Stats, MeanSimple) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanSingleElement) {
  const std::vector<double> xs = {42.0};
  EXPECT_DOUBLE_EQ(mean(xs), 42.0);
}

TEST(Stats, StddevOfConstantIsZero) {
  const std::vector<double> xs = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, StddevKnownValue) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample stddev with n-1 denominator.
  EXPECT_NEAR(stddev(xs), 2.138089935299395, 1e-12);
}

TEST(Stats, StddevNeedsTwoSamples) {
  const std::vector<double> xs = {3.0};
  EXPECT_EQ(stddev(xs), 0.0);
}

TEST(Stats, PercentileEmptyIsZero) { EXPECT_EQ(percentile({}, 50.0), 0.0); }

TEST(Stats, PercentileSingle) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 7.0);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
}

TEST(Stats, PercentileMatchesNumpyConvention) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  // numpy.percentile(..., 50) == 2.5 with linear interpolation.
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 3.25);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
}

TEST(Stats, PercentileSortedAgreesWithUnsorted) {
  std::vector<double> xs = {4.0, 2.0, 8.0, 6.0};
  const double q = percentile(xs, 37.0);
  std::vector<double> sorted = {2.0, 4.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 37.0), q);
}

TEST(Stats, SummarizeOrdersQuantiles) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(static_cast<double>(i));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_LE(s.p25, s.p50);
  EXPECT_LE(s.p50, s.p75);
  EXPECT_LE(s.p75, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_NEAR(s.mean, 50.5, 1e-12);
}

TEST(Stats, SummarizeEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StreamingStats, MatchesBatchMoments) {
  const std::vector<double> xs = {1.5, -2.0, 7.25, 0.0, 3.5, 3.5};
  StreamingStats acc;
  for (double x : xs) acc.add(x);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(acc.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), -2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.25);
}

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(StreamingStats, SingleSampleVarianceZero) {
  StreamingStats acc;
  acc.add(3.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
}

// Property sweep: percentile is monotone in q for arbitrary samples.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInRank) {
  // Deterministic pseudo-random sample derived from the parameter.
  std::vector<double> xs;
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 1u;
  for (int i = 0; i < 50; ++i) {
    state = state * 1664525u + 1013904223u;
    xs.push_back(static_cast<double>(state % 10000) / 100.0);
  }
  double prev = percentile(xs, 0.0);
  for (double q = 5.0; q <= 100.0; q += 5.0) {
    const double cur = percentile(xs, q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Samples, PercentileMonotone,
                         ::testing::Range(0, 8));

// The sort-based percentile every selected quantile must equal bit for
// bit: sort a copy, then interpolate between the closest ranks.
double sorted_reference(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  if (xs.empty()) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

// n samples of one shape: random spread, few distinct values, or constant.
std::vector<double> sample_of(const std::string& shape, std::size_t n,
                              std::uint64_t seed) {
  std::vector<double> xs;
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + n;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t r = state >> 33;
    if (shape == "random") {
      xs.push_back(static_cast<double>(r % 1000003) / 7.0 + 0.001);
    } else if (shape == "duplicates") {
      xs.push_back(static_cast<double>(r % 4) * 0.25);
    } else {
      xs.push_back(3.5);
    }
  }
  return xs;
}

TEST(Stats, SelectedQuantilesEqualTheSortedReference) {
  const std::vector<double> ranks = {0.0,  1.0,  25.0, 37.0, 50.0, 50.0,
                                     75.0, 95.0, 99.0, 99.9, 100.0};
  for (const std::string shape : {"random", "duplicates", "constant"}) {
    for (std::size_t n : {1, 2, 3, 255, 256, 257, 1000, 4096}) {
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const std::vector<double> xs = sample_of(shape, n, seed);
        std::vector<double> scratch = xs;
        std::vector<double> got(ranks.size());
        select_percentiles(scratch, ranks, got);
        for (std::size_t k = 0; k < ranks.size(); ++k) {
          const double want = sorted_reference(xs, ranks[k]);
          EXPECT_EQ(got[k], want) << shape << " n=" << n << " q=" << ranks[k];
          EXPECT_EQ(percentile(xs, ranks[k]), want)
              << shape << " n=" << n << " q=" << ranks[k];
        }
        // summarize: min/max are the extremes, p25..p99 the same quantiles.
        const Summary s = summarize(xs);
        EXPECT_EQ(s.min, sorted_reference(xs, 0.0)) << shape << " n=" << n;
        EXPECT_EQ(s.max, sorted_reference(xs, 100.0)) << shape << " n=" << n;
        EXPECT_EQ(s.p25, sorted_reference(xs, 25.0)) << shape << " n=" << n;
        EXPECT_EQ(s.p50, sorted_reference(xs, 50.0)) << shape << " n=" << n;
        EXPECT_EQ(s.p75, sorted_reference(xs, 75.0)) << shape << " n=" << n;
        EXPECT_EQ(s.p95, sorted_reference(xs, 95.0)) << shape << " n=" << n;
        EXPECT_EQ(s.p99, sorted_reference(xs, 99.0)) << shape << " n=" << n;
        EXPECT_EQ(s.mean, mean(xs));
        EXPECT_EQ(s.stddev, stddev(xs));
      }
    }
  }
}

TEST(Stats, SelectionLeavesTheSameMultiset) {
  std::vector<double> xs = sample_of("random", 1000, 7);
  std::vector<double> scratch = xs;
  const double ranks[] = {25.0, 99.0};
  double out[2];
  select_percentiles(scratch, ranks, out);
  std::sort(xs.begin(), xs.end());
  std::sort(scratch.begin(), scratch.end());
  EXPECT_EQ(scratch, xs);
}

TEST(StatsDeathTest, SelectionNeedsAscendingRanks) {
  std::vector<double> xs = sample_of("random", kSelectFrom, 1);
  const double ranks[] = {75.0, 25.0};
  double out[2];
  EXPECT_DEATH(select_percentiles(xs, ranks, out), "ascend");
}

}  // namespace
}  // namespace whisk::util
