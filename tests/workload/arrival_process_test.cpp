#include "workload/arrival_process.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace whisk::workload {
namespace {

TEST(UniformArrivals_, SamplesInsideTheWindow) {
  UniformArrivals arrivals;
  EXPECT_FALSE(arrivals.rate_driven());
  sim::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto t = arrivals.sample(42.0, rng);
    ASSERT_GE(t, 0.0);
    ASSERT_LT(t, 42.0);
  }
}

TEST(PoissonArrivals_, CountConcentratesAroundRateTimesWindow) {
  PoissonArrivals arrivals(50.0);
  EXPECT_TRUE(arrivals.rate_driven());
  sim::Rng rng(2);
  const auto times = arrivals.schedule(60.0, rng);
  // Mean 3000, sigma ~55; a +-20% band is ~10 sigma.
  EXPECT_GT(times.size(), 2400u);
  EXPECT_LT(times.size(), 3600u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_GE(times[i], 0.0);
    ASSERT_LT(times[i], 60.0);
    if (i > 0) {
      ASSERT_GT(times[i], times[i - 1]) << "strictly increasing";
    }
  }
}

TEST(PoissonArrivals_, SameSeedSameSchedule) {
  PoissonArrivals arrivals(20.0);
  sim::Rng a(3), b(3), c(4);
  EXPECT_EQ(arrivals.schedule(60.0, a), arrivals.schedule(60.0, b));
  EXPECT_NE(arrivals.schedule(60.0, a), arrivals.schedule(60.0, c));
}

TEST(OnOffArrivals_, QuietWhenOffRateIsZero) {
  // With rate-off=0, every arrival must land inside an ON phase; with ~4 s
  // ON and ~16 s OFF phases the trace has long silent stretches.
  OnOffArrivals arrivals(100.0, 0.0, 4.0, 16.0);
  sim::Rng rng(5);
  const auto times = arrivals.schedule(120.0, rng);
  ASSERT_GT(times.size(), 20u);
  double max_gap = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    max_gap = std::max(max_gap, times[i] - times[i - 1]);
  }
  // At 100/s inside a burst, a >2 s gap can only be an OFF phase.
  EXPECT_GT(max_gap, 2.0);
  for (const auto t : times) ASSERT_LT(t, 120.0);
}

TEST(DiurnalArrivals_, FollowsTheSinusoidalRateCurve) {
  DiurnalArrivals arrivals(40.0, 1.0, 60.0);
  sim::Rng rng(6);
  const auto times = arrivals.schedule(60.0, rng);
  ASSERT_GT(times.size(), 500u);
  int first_half = 0;
  for (const auto t : times) {
    if (t < 30.0) ++first_half;
  }
  // sin is positive on the first half-period and negative on the second:
  // with amplitude 1 the first half carries ~82% of the mass.
  EXPECT_GT(first_half, static_cast<int>(0.7 * times.size()));
}

TEST(TraceArrivals_, ReplaysAndClipsToWindow) {
  TraceArrivals arrivals({0.5, 2.0, 61.0});
  sim::Rng rng(7);
  const auto times = arrivals.schedule(60.0, rng);
  EXPECT_EQ(times, (std::vector<sim::SimTime>{0.5, 2.0}));
}

TEST(ArrivalProcessDeath, WrongModeAndBadParamsAbort) {
  sim::Rng rng(8);
  UniformArrivals uniform;
  EXPECT_DEATH((void)uniform.schedule(60.0, rng), "count-driven");
  PoissonArrivals poisson(1.0);
  EXPECT_DEATH((void)poisson.sample(60.0, rng), "rate-driven");
  EXPECT_DEATH(PoissonArrivals{0.0}, "rate must be positive");
  EXPECT_DEATH((OnOffArrivals{0.0, 0.0, 1.0, 1.0}), "rate-on");
  EXPECT_DEATH((DiurnalArrivals{10.0, 1.5, 60.0}), "amplitude");
  EXPECT_DEATH(TraceArrivals{{-1.0}}, ">= 0");
}

TEST(ArrivalProcessDeath, AbsurdExpectedEventCountsAbortInsteadOfSpinning) {
  // Finite-but-huge rates (or microscopic phase durations) would otherwise
  // loop for ~rate*window iterations with no diagnostic.
  sim::Rng rng(9);
  EXPECT_DEATH((void)PoissonArrivals{1e300}.schedule(60.0, rng),
               "more than 1e7 expected events");
  EXPECT_DEATH(
      (void)OnOffArrivals(10.0, 0.0, 1e-300, 1.0).schedule(60.0, rng),
      "more than 1e7 expected events");
  EXPECT_DEATH((void)DiurnalArrivals(1e300, 0.5, 60.0).schedule(60.0, rng),
               "more than 1e7 expected events");
}

}  // namespace
}  // namespace whisk::workload
