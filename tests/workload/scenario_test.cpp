// Behavior of the built-in registered scenarios through the declarative
// surface: the paper's count formulas, per-function splits, window/sort/id
// invariants, and seed determinism.
#include "workload/scenario_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace whisk::workload {
namespace {

class ScenarioTest : public ::testing::Test {
 protected:
  Scenario make(const std::string& spec, std::uint64_t seed, int cores = 10) {
    ScenarioContext ctx;
    ctx.catalog = &cat_;
    ctx.cores = cores;
    sim::Rng rng(seed);
    return make_scenario(spec, ctx, rng);
  }

  FunctionCatalog cat_ = sebs_catalog();
};

TEST_F(ScenarioTest, UniformBurstRequestCountMatchesFormula) {
  // 1.1 * c * v (paper Sec. V-B).
  EXPECT_EQ(make("uniform?intensity=30", 1).size(), 330u);
  EXPECT_EQ(make("uniform?intensity=120", 1, /*cores=*/20).size(), 2640u);
}

TEST_F(ScenarioTest, UniformIntensityDefaultsToThePaperValue) {
  // Without an intensity= parameter the burst is sized at kPaperIntensity.
  ScenarioContext ctx;
  ctx.catalog = &cat_;
  ctx.cores = 10;
  sim::Rng rng(1);
  EXPECT_EQ(make_scenario("uniform", ctx, rng).size(), 330u);
}

TEST_F(ScenarioTest, UniformBurstEqualCallsPerFunction) {
  const auto s = make("uniform?intensity=60", 2);
  std::map<FunctionId, int> counts;
  for (const auto& c : s.calls) ++counts[c.function];
  EXPECT_EQ(counts.size(), 11u);
  for (const auto& [fn, n] : counts) EXPECT_EQ(n, 60);
}

TEST_F(ScenarioTest, ReleasesInsideWindowAndSorted) {
  const auto s = make("uniform?intensity=30", 3);
  for (std::size_t i = 0; i < s.calls.size(); ++i) {
    ASSERT_GE(s.calls[i].release, 0.0);
    ASSERT_LT(s.calls[i].release, 60.0);
    if (i > 0) {
      ASSERT_GE(s.calls[i].release, s.calls[i - 1].release);
    }
  }
}

TEST_F(ScenarioTest, IdsAreSequentialAfterSorting) {
  const auto s = make("uniform?intensity=30", 4, /*cores=*/5);
  for (std::size_t i = 0; i < s.calls.size(); ++i) {
    EXPECT_EQ(s.calls[i].id, static_cast<CallId>(i));
  }
}

TEST_F(ScenarioTest, SameSeedSameScenario) {
  const auto s1 = make("uniform?intensity=40", 9);
  const auto s2 = make("uniform?intensity=40", 9);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.calls.size(); ++i) {
    EXPECT_EQ(s1.calls[i].function, s2.calls[i].function);
    EXPECT_EQ(s1.calls[i].release, s2.calls[i].release);
  }
}

TEST_F(ScenarioTest, DifferentSeedsDifferentOrder) {
  const auto s1 = make("uniform?intensity=40", 1);
  const auto s2 = make("uniform?intensity=40", 2);
  bool differs = false;
  for (std::size_t i = 0; i < s1.calls.size(); ++i) {
    if (s1.calls[i].function != s2.calls[i].function ||
        s1.calls[i].release != s2.calls[i].release) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST_F(ScenarioTest, CustomWindowRespected) {
  const auto s = make("uniform?intensity=30&window=10", 5);
  EXPECT_EQ(s.window, 10.0);
  for (const auto& c : s.calls) ASSERT_LT(c.release, 10.0);
}

TEST_F(ScenarioTest, FixedTotalBurstExactCount) {
  EXPECT_EQ(make("fixed-total?total=2376", 6).size(), 2376u);
}

TEST_F(ScenarioTest, FixedTotalNearEqualPerFunction) {
  const auto s = make("fixed-total?total=1320", 7);
  std::map<FunctionId, int> counts;
  for (const auto& c : s.calls) ++counts[c.function];
  // 1320 = 120 * 11 exactly.
  for (const auto& [fn, n] : counts) EXPECT_EQ(n, 120);
}

TEST_F(ScenarioTest, FairnessBurstHasExactRareCalls) {
  const auto dna = *cat_.find("dna-visualisation");
  const auto s = make("fairness?intensity=90&rare-calls=10", 8);
  EXPECT_EQ(s.size(), 990u);  // 1.1 * 10 * 90
  int rare = 0;
  for (const auto& c : s.calls) {
    if (c.function == dna) ++rare;
  }
  EXPECT_EQ(rare, 10);
}

TEST_F(ScenarioTest, FairnessOtherFunctionsRoughlyUniform) {
  const auto dna = *cat_.find("dna-visualisation");
  const auto s = make("fairness?intensity=90&rare-calls=10", 9);
  std::map<FunctionId, int> counts;
  for (const auto& c : s.calls) {
    if (c.function != dna) ++counts[c.function];
  }
  EXPECT_EQ(counts.size(), 10u);
  // 980 calls over 10 functions: expect each within a loose band of 98.
  for (const auto& [fn, n] : counts) {
    EXPECT_GT(n, 60) << fn;
    EXPECT_LT(n, 140) << fn;
  }
}

TEST_F(ScenarioTest, PoissonCountTracksRateTimesWindow) {
  const auto s = make("poisson?rate=30", 10);
  // 30/s over 60 s -> ~1800 calls; a +-20% band is ~10 sigma.
  EXPECT_GT(s.size(), 1440u);
  EXPECT_LT(s.size(), 2160u);
  for (const auto& c : s.calls) {
    ASSERT_GE(c.release, 0.0);
    ASSERT_LT(c.release, 60.0);
  }
}

TEST_F(ScenarioTest, WeightedMixSkewsTheFunctionHistogram) {
  // All weight on function 0 except a sliver on function 1.
  const auto s = make(
      "poisson?rate=30&mix=weighted&weights=10,1,0,0,0,0,0,0,0,0,0", 11);
  std::map<FunctionId, int> counts;
  for (const auto& c : s.calls) ++counts[c.function];
  EXPECT_EQ(counts.count(2), 0u) << "zero-weight functions never run";
  EXPECT_GT(counts[0], counts[1] * 4);
}

TEST_F(ScenarioTest, BurstyHasBurstierInterarrivalsThanPoisson) {
  // Same mean-ish volume; the on-off process should concentrate arrivals.
  const auto bursty =
      make("bursty?rate-on=120&rate-off=2&mean-on=4&mean-off=8", 12);
  ASSERT_GT(bursty.size(), 50u);
  // Count arrivals per 1 s bin; a bursty trace has a much higher max/mean
  // bin ratio than a flat one.
  std::vector<int> bins(60, 0);
  for (const auto& c : bursty.calls) {
    ++bins[static_cast<std::size_t>(c.release)];
  }
  int max_bin = 0;
  for (int b : bins) max_bin = std::max(max_bin, b);
  const double mean_bin = static_cast<double>(bursty.size()) / 60.0;
  EXPECT_GT(max_bin, 2.5 * mean_bin);
}

TEST_F(ScenarioTest, DiurnalPeakQuarterOutweighsTroughQuarter) {
  // lambda(t) = rate * (1 + a sin(2 pi t / 60)): peak in [0,15), trough in
  // [30,45).
  const auto s = make("diurnal?rate=40&amplitude=0.9", 13);
  int peak = 0, trough = 0;
  for (const auto& c : s.calls) {
    if (c.release < 15.0) ++peak;
    if (c.release >= 30.0 && c.release < 45.0) ++trough;
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST_F(ScenarioTest, GeneratorDeathOnNonDivisibleIntensity) {
  // 1.1 * 3 * 33 = 108.9 -> 109, not divisible by 11 functions.
  EXPECT_DEATH((void)make("uniform?intensity=33", 10, /*cores=*/3),
               "evenly");
}

TEST_F(ScenarioTest, FairnessDeathWhenRareCallsExceedBudget) {
  // 1.1 * 10 * 30 = 330 requests; 500 rare calls cannot fit. The seed
  // generator's underflow risk is now a loud, named failure.
  EXPECT_DEATH((void)make("fairness?intensity=30&rare-calls=500", 1),
               "rare-calls=500 exceeds the burst's 330 requests");
}

// Property over seeds: uniform burst release times fill the window evenly
// (first quarter holds roughly a quarter of calls).
class BurstUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurstUniformity, QuartersBalanced) {
  const auto cat = sebs_catalog();
  ScenarioContext ctx;
  ctx.catalog = &cat;
  ctx.cores = 20;
  sim::Rng rng(GetParam());
  const auto s = make_scenario("uniform?intensity=120", ctx, rng);
  int first_quarter = 0;
  for (const auto& c : s.calls) {
    if (c.release < 15.0) ++first_quarter;
  }
  const double frac = static_cast<double>(first_quarter) /
                      static_cast<double>(s.size());
  EXPECT_NEAR(frac, 0.25, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstUniformity,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

}  // namespace
}  // namespace whisk::workload
