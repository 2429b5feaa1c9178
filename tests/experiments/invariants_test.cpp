// Property-style invariants that must hold for every scheduler, seed and
// load level: per-call timestamp ordering, request conservation, stats
// consistency, and cross-scheduler conservation laws (same call sequence,
// same service-time marginals).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>

#include "experiments/runner.h"
#include "util/stats.h"

namespace whisk::experiments {
namespace {

class EndToEndInvariants
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {
 protected:
  workload::FunctionCatalog cat_ = workload::sebs_catalog();
};

TEST_P(EndToEndInvariants, HoldForEveryScheduler) {
  const auto [cores, intensity, seed] = GetParam();
  for (const auto& sched : paper_schedulers()) {
    const auto cfg = ExperimentSpec()
                         .cores(cores)
                         .scenario("uniform?intensity=" +
                                   std::to_string(intensity))
                         .seed(seed)
                         .scheduler(sched);
    const auto run = run_experiment(cfg, cat_);

    const std::size_t expected =
        static_cast<std::size_t>(1.1 * cores * intensity + 0.5);
    ASSERT_EQ(run.records.size(), expected) << sched.label();

    // Per-call timeline ordering and sanity.
    std::vector<bool> seen(expected, false);
    for (const auto& rec : run.records) {
      ASSERT_GE(rec.id, 0);
      ASSERT_LT(static_cast<std::size_t>(rec.id), expected);
      ASSERT_FALSE(seen[static_cast<std::size_t>(rec.id)])
          << "duplicate call id under " << sched.label();
      seen[static_cast<std::size_t>(rec.id)] = true;

      ASSERT_GE(rec.release, 0.0);
      ASSERT_LT(rec.release, 60.0) << "releases stay in the burst window";
      ASSERT_GT(rec.received, rec.release) << "network takes time";
      ASSERT_GE(rec.exec_start, rec.received);
      ASSERT_GT(rec.exec_end, rec.exec_start);
      ASSERT_GT(rec.completion, rec.exec_end);
      ASSERT_GT(rec.service, 0.0);
      // Execution never finishes faster than the sampled service time
      // (pinned mode runs at speed 1, processor sharing only slower).
      ASSERT_GE(rec.exec_end - rec.exec_start, rec.service - 1e-9);
      ASSERT_EQ(rec.node, 0);
    }

    // Stats agree with the records.
    ASSERT_EQ(run.stats.calls_received, expected);
    ASSERT_EQ(run.stats.calls_completed, expected);
    ASSERT_EQ(run.stats.warm_starts + run.stats.prewarm_starts +
                  run.stats.cold_starts,
              expected);

    // max completion dominates every response.
    for (const auto& rec : run.records) {
      ASSERT_LE(rec.completion, run.max_completion + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EndToEndInvariants,
    ::testing::Combine(::testing::Values(5, 10),      // cores
                       ::testing::Values(30, 60),     // intensity
                       ::testing::Values(0ull, 1ull)  // seed
                       ));

TEST(CrossScheduler, TotalServiceTimeIsScheduleIndependent) {
  // The same seed yields the same call sequence and the same service-time
  // draws are taken from per-node streams; while individual draws differ by
  // execution order, the per-function service *distributions* must agree
  // across schedulers (no policy can change what the workload demands).
  const auto cat = workload::sebs_catalog();
  auto cfg = ExperimentSpec().cores(5).scenario("uniform?intensity=30").seed(0);

  std::vector<double> totals;
  for (const auto& sched : paper_schedulers()) {
    cfg.scheduler(sched);
    const auto run = run_experiment(cfg, cat);
    double total = 0.0;
    for (const auto& rec : run.records) total += rec.service;
    totals.push_back(total);
  }
  // All schedulers process statistically identical work: within 15% of one
  // another.
  const double lo = *std::min_element(totals.begin(), totals.end());
  const double hi = *std::max_element(totals.begin(), totals.end());
  EXPECT_LT(hi / lo, 1.15);
}

TEST(CrossScheduler, StarvationFreePoliciesBoundTheTail) {
  // EECT and RECT prevent starvation (paper Sec. IV): no call's response
  // may exceed the drain horizon by orders of magnitude, and the last
  // *started* call must start before the overall max completion.
  const auto cat = workload::sebs_catalog();
  for (const std::string_view policy : {"eect", "rect", "sjf-aging"}) {
    const auto cfg =
        ExperimentSpec().cores(10).scenario("uniform?intensity=60").scheduler(
            SchedulerSpec{"ours", std::string(policy)});
    const auto run = run_experiment(cfg, cat);
    for (const auto& rec : run.records) {
      ASSERT_LE(rec.response(), run.max_completion);
    }
  }
}

TEST(CrossScheduler, SeptMayStarveLongCallsUntilDrainEnd) {
  // SEPT's known trade-off: the very last completions are the long calls.
  const auto cat = workload::sebs_catalog();
  const auto cfg = ExperimentSpec()
                       .cores(10)
                       .scenario("uniform?intensity=60")
                       .scheduler("ours/sept");
  const auto run = run_experiment(cfg, cat);
  const auto dna = *cat.find("dna-visualisation");
  // The call that completes last is a dna-visualisation call.
  const metrics::CallRecord* last = nullptr;
  for (const auto& rec : run.records) {
    if (!last || rec.completion > last->completion) last = &rec;
  }
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->function, dna);
}

TEST(Determinism, WholeGridIsSeedDeterministic) {
  const auto cat = workload::sebs_catalog();
  for (const auto& sched : paper_schedulers()) {
    const auto cfg = ExperimentSpec()
                         .cores(5)
                         .scenario("uniform?intensity=30")
                         .seed(11)
                         .scheduler(sched);
    const auto a = run_experiment(cfg, cat);
    const auto b = run_experiment(cfg, cat);
    ASSERT_EQ(a.max_completion, b.max_completion) << sched.label();
    ASSERT_EQ(a.stats.cold_starts, b.stats.cold_starts) << sched.label();
  }
}

}  // namespace
}  // namespace whisk::experiments
