// Reproducibility of the full pipeline after the hot-path rewrite: the
// whole simulator drives itself through sim::Engine, so a fixed seed must
// yield a byte-identical metrics CSV run over run — across schedulers,
// including the history-driven policies (SEPT/FC) that exercise the O(1)
// running-sum estimates.
#include <gtest/gtest.h>

#include <string>

#include "experiments/experiment_spec.h"
#include "experiments/runner.h"
#include "metrics/csv.h"
#include "workload/function.h"

namespace whisk::experiments {
namespace {

std::string run_csv(const std::string& scheduler, std::uint64_t seed) {
  const auto cat = workload::sebs_catalog();
  auto spec = ExperimentSpec()
                  .cores(10)
                  .scenario("uniform?intensity=30")
                  .seed(seed)
                  .scheduler(scheduler);
  const auto result = run_experiment(spec, cat);
  return metrics::to_csv(result.records, cat);
}

class Determinism : public ::testing::TestWithParam<const char*> {};

TEST_P(Determinism, SameSeedSameCsv) {
  const std::string first = run_csv(GetParam(), 7);
  const std::string second = run_csv(GetParam(), 7);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST_P(Determinism, DifferentSeedsDiffer) {
  // Sanity check that the CSV actually reflects the seed (otherwise the
  // test above proves nothing).
  EXPECT_NE(run_csv(GetParam(), 7), run_csv(GetParam(), 8));
}

INSTANTIATE_TEST_SUITE_P(Schedulers, Determinism,
                         ::testing::Values("ours/sept", "ours/fc",
                                           "ours/fifo", "baseline"));

}  // namespace
}  // namespace whisk::experiments
