#include "core/history.h"

#include <gtest/gtest.h>

namespace whisk::core {
namespace {

TEST(History, UnknownFunctionHasZeroEstimate) {
  RuntimeHistory h(10);
  // "If a function has never been executed, we set its estimated execution
  // time to 0" (paper Sec. IV-B).
  EXPECT_EQ(h.expected_runtime(3), 0.0);
  EXPECT_EQ(h.samples(3), 0u);
}

TEST(History, SingleSampleIsTheEstimate) {
  RuntimeHistory h(10);
  h.record_runtime(1, 2.5, 0.0);
  EXPECT_DOUBLE_EQ(h.expected_runtime(1), 2.5);
}

TEST(History, AveragesRecentSamples) {
  RuntimeHistory h(10);
  h.record_runtime(1, 1.0, 0.0);
  h.record_runtime(1, 2.0, 1.0);
  h.record_runtime(1, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(h.expected_runtime(1), 2.0);
}

TEST(History, WindowDropsOldSamples) {
  RuntimeHistory h(3);
  h.record_runtime(1, 100.0, 0.0);
  h.record_runtime(1, 1.0, 1.0);
  h.record_runtime(1, 1.0, 2.0);
  h.record_runtime(1, 1.0, 3.0);
  // The 100.0 sample fell out of the 3-sample window.
  EXPECT_DOUBLE_EQ(h.expected_runtime(1), 1.0);
}

TEST(History, TenSampleWindowMatchesPaper) {
  RuntimeHistory h;  // default window
  EXPECT_EQ(h.window(), 10u);
  for (int i = 0; i < 20; ++i) {
    h.record_runtime(2, static_cast<double>(i), static_cast<double>(i));
  }
  // Average of the last 10 values (10..19) = 14.5.
  EXPECT_DOUBLE_EQ(h.expected_runtime(2), 14.5);
  EXPECT_EQ(h.samples(2), 10u);
}

TEST(History, FunctionsAreIndependent) {
  RuntimeHistory h(10);
  h.record_runtime(1, 1.0, 0.0);
  h.record_runtime(2, 9.0, 0.0);
  EXPECT_DOUBLE_EQ(h.expected_runtime(1), 1.0);
  EXPECT_DOUBLE_EQ(h.expected_runtime(2), 9.0);
}

TEST(History, PreviousArrivalDefaultsToZero) {
  RuntimeHistory h(10);
  EXPECT_EQ(h.previous_arrival(1), 0.0);
}

TEST(History, PreviousArrivalTracksLastRecord) {
  RuntimeHistory h(10);
  h.record_arrival(1, 5.0);
  EXPECT_DOUBLE_EQ(h.previous_arrival(1), 5.0);
  h.record_arrival(1, 7.5);
  EXPECT_DOUBLE_EQ(h.previous_arrival(1), 7.5);
  EXPECT_EQ(h.previous_arrival(2), 0.0);
}

TEST(History, CompletionsWithinWindow) {
  RuntimeHistory h(10);
  h.record_runtime(1, 0.1, 10.0);
  h.record_runtime(1, 0.1, 30.0);
  h.record_runtime(1, 0.1, 50.0);
  // At t=60 with T=60: completions at 10, 30, 50 are >= 0 -> all 3.
  EXPECT_EQ(h.completions_within(1, 60.0, 60.0), 3u);
  // At t=80 with T=60: completions at 30 and 50 remain.
  EXPECT_EQ(h.completions_within(1, 60.0, 80.0), 2u);
  // At t=120 with T=60: only the one at 50... 120-60=60 > 50 -> none.
  EXPECT_EQ(h.completions_within(1, 60.0, 120.0), 0u);
}

TEST(History, CompletionsWindowPerFunction) {
  RuntimeHistory h(10);
  h.record_runtime(1, 0.1, 10.0);
  h.record_runtime(2, 0.1, 10.0);
  h.record_runtime(2, 0.1, 11.0);
  EXPECT_EQ(h.completions_within(1, 60.0, 20.0), 1u);
  EXPECT_EQ(h.completions_within(2, 60.0, 20.0), 2u);
  EXPECT_EQ(h.completions_within(3, 60.0, 20.0), 0u);
}

TEST(History, CompletionsCountBeyondRuntimeWindow) {
  // The FC count #(f, -T) counts *all* completions in the sliding time
  // window, not just those still inside the 10-sample runtime window.
  RuntimeHistory h(2);
  for (int i = 0; i < 30; ++i) {
    h.record_runtime(1, 0.1, static_cast<double>(i));
  }
  EXPECT_EQ(h.completions_within(1, 60.0, 30.0), 30u);
  EXPECT_EQ(h.samples(1), 2u);
}

TEST(History, NoPruningWithoutRegisteredWindow) {
  RuntimeHistory h(10);
  for (int i = 0; i < 1000; ++i) {
    h.record_runtime(1, 0.1, static_cast<double>(i));
  }
  EXPECT_EQ(h.completions_stored(1), 1000u)
      << "unregistered histories keep every timestamp (arbitrary queries "
         "stay exact)";
}

TEST(History, RegisteredWindowBoundsCompletionMemory) {
  RuntimeHistory h(10);
  h.register_fc_window(60.0);
  for (int i = 0; i < 10000; ++i) {
    h.record_runtime(1, 0.1, static_cast<double>(i));
  }
  // One completion per second: at most ~61 timestamps can be within any
  // 60-second query window ending at or after the newest completion.
  EXPECT_LE(h.completions_stored(1), 62u);
  EXPECT_EQ(h.completions_within(1, 60.0, 10000.0), 60u);
}

TEST(History, PruningKeepsWindowQueriesExact) {
  RuntimeHistory h(10);
  h.register_fc_window(60.0);
  RuntimeHistory unpruned(10);
  for (int i = 0; i < 5000; ++i) {
    const double t = 0.37 * i;
    h.record_runtime(2, 0.1, t);
    unpruned.record_runtime(2, 0.1, t);
    if (i % 100 == 0) {
      for (double w : {5.0, 30.0, 60.0}) {
        ASSERT_EQ(h.completions_within(2, w, t),
                  unpruned.completions_within(2, w, t));
      }
    }
  }
}

TEST(History, LargestRegisteredWindowWins) {
  RuntimeHistory h(10);
  h.register_fc_window(10.0);
  h.register_fc_window(60.0);
  h.register_fc_window(30.0);  // smaller than the current max: no effect
  for (int i = 0; i < 200; ++i) {
    h.record_runtime(1, 0.1, static_cast<double>(i));
  }
  // Timestamps within the 60 s horizon must all survive.
  EXPECT_EQ(h.completions_within(1, 60.0, 199.0), 61u);
}

TEST(History, ArrivalsNotStoredWithoutRegisteredWindow) {
  // The node hot path records arrivals into unregistered histories; the
  // timestamps must not pile up there (only the autoscaler's dedicated
  // controller history registers an arrival window).
  RuntimeHistory h(10);
  for (int i = 0; i < 1000; ++i) {
    h.record_arrival(1, static_cast<double>(i));
  }
  EXPECT_EQ(h.arrivals_stored(1), 0u);
  EXPECT_DOUBLE_EQ(h.previous_arrival(1), 999.0)
      << "the SEPT inter-arrival estimate still sees the last arrival";
}

TEST(History, ArrivalsWithinCountsTheSlidingWindow) {
  RuntimeHistory h(10);
  h.register_arrival_window(30.0);
  for (int i = 0; i < 20; ++i) {
    h.record_arrival(1, static_cast<double>(i));
  }
  // Arrivals 0..19; the window is inclusive at its left edge, so [9, 19]
  // holds 11 and a window reaching past the first arrival holds all 20.
  EXPECT_EQ(h.arrivals_within(1, 10.0, 19.0), 11u);
  EXPECT_EQ(h.arrivals_within(1, 30.0, 19.0), 20u);
  EXPECT_EQ(h.arrivals_within(2, 10.0, 19.0), 0u);
}

TEST(History, ArrivalWindowBoundsArrivalMemory) {
  RuntimeHistory h(10);
  h.register_arrival_window(30.0);
  for (int i = 0; i < 10000; ++i) {
    h.record_arrival(1, static_cast<double>(i));
  }
  EXPECT_LE(h.arrivals_stored(1), 32u);
  EXPECT_EQ(h.arrivals_within(1, 30.0, 10000.0), 30u);
}

TEST(History, LargestArrivalWindowWins) {
  RuntimeHistory h(10);
  h.register_arrival_window(5.0);
  h.register_arrival_window(40.0);
  h.register_arrival_window(10.0);  // smaller than the current max: no-op
  for (int i = 0; i < 100; ++i) {
    h.record_arrival(1, static_cast<double>(i));
  }
  EXPECT_EQ(h.arrivals_within(1, 40.0, 100.0), 40u);
}

TEST(HistoryDeath, ArrivalQueryWithoutRegisteredWindowAborts) {
  RuntimeHistory h(10);
  h.record_arrival(1, 5.0);
  // Nothing was stored, so any windowed count would silently be 0.
  EXPECT_DEATH((void)h.arrivals_within(1, 10.0, 5.0), "");
}

TEST(HistoryDeath, ArrivalQueryWiderThanHorizonAborts) {
  RuntimeHistory h(10);
  h.register_arrival_window(30.0);
  h.record_arrival(1, 100.0);
  EXPECT_DEATH((void)h.arrivals_within(1, 60.0, 100.0), "");
}

TEST(HistoryDeath, QueryWiderThanRegisteredHorizonAborts) {
  RuntimeHistory h(10);
  h.register_fc_window(60.0);
  h.record_runtime(1, 0.1, 100.0);
  // Timestamps past the horizon may already be pruned; a wider query must
  // fail loudly instead of silently undercounting.
  EXPECT_DEATH((void)h.completions_within(1, 120.0, 100.0), "horizon");
}

TEST(HistoryDeath, NegativeRuntimeAborts) {
  RuntimeHistory h(10);
  EXPECT_DEATH(h.record_runtime(1, -1.0, 0.0), "negative");
}

TEST(HistoryDeath, OutOfOrderCompletionsAbort) {
  RuntimeHistory h(10);
  h.record_runtime(1, 0.1, 10.0);
  EXPECT_DEATH(h.record_runtime(1, 0.1, 5.0), "order");
}

// Property: the estimate always lies within [min, max] of the recorded
// samples in the window.
class HistoryBounds : public ::testing::TestWithParam<int> {};

TEST_P(HistoryBounds, EstimateWithinSampleRange) {
  RuntimeHistory h(10);
  unsigned state = static_cast<unsigned>(GetParam()) * 31u + 17u;
  double lo = 1e30, hi = 0.0;
  std::vector<double> window;
  for (int i = 0; i < 40; ++i) {
    state = state * 1664525u + 1013904223u;
    const double r = 0.01 + static_cast<double>(state % 1000) / 100.0;
    h.record_runtime(1, r, static_cast<double>(i));
    window.push_back(r);
    if (window.size() > 10) window.erase(window.begin());
    lo = *std::min_element(window.begin(), window.end());
    hi = *std::max_element(window.begin(), window.end());
    ASSERT_GE(h.expected_runtime(1), lo - 1e-12);
    ASSERT_LE(h.expected_runtime(1), hi + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryBounds, ::testing::Range(0, 5));

}  // namespace
}  // namespace whisk::core
