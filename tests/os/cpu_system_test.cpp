#include "os/cpu_system.h"

#include <gtest/gtest.h>

#include <vector>

namespace whisk::os {
namespace {

// Starts tasks under consecutive tags and records each completion's tag
// and time.
struct Harness {
  sim::Engine engine;
  std::vector<CpuSystem::Tag> completed;
  std::vector<double> completion_times;
  CpuSystem::Tag next_tag = 0;

  CpuSystem make(ExecMode mode, int cores, double beta = 0.30) {
    return CpuSystem(engine, CpuParams{mode, cores, beta},
                     [this](CpuSystem::Tag tag) {
                       completed.push_back(tag);
                       completion_times.push_back(engine.now());
                     });
  }

  CpuSystem::Tag start(CpuSystem& cpu, double service, double cpu_fraction,
                       double weight = 1.0) {
    cpu.start(next_tag, service, cpu_fraction, weight);
    return next_tag++;
  }
};

TEST(PinnedCore, SingleTaskRunsAtNominalSpeed) {
  Harness h;
  auto cpu = h.make(ExecMode::kPinnedCore, 4);
  h.start(cpu, 2.0, 1.0);
  h.engine.run();
  ASSERT_EQ(h.completed.size(), 1u);
  EXPECT_NEAR(h.completion_times[0], 2.0, 1e-9);
}

TEST(PinnedCore, TasksDoNotInterfere) {
  Harness h;
  auto cpu = h.make(ExecMode::kPinnedCore, 4);
  h.start(cpu, 1.0, 1.0);
  h.start(cpu, 2.0, 1.0);
  h.start(cpu, 3.0, 1.0);
  h.engine.run();
  ASSERT_EQ(h.completion_times.size(), 3u);
  EXPECT_NEAR(h.completion_times[0], 1.0, 1e-9);
  EXPECT_NEAR(h.completion_times[1], 2.0, 1e-9);
  EXPECT_NEAR(h.completion_times[2], 3.0, 1e-9);
}

TEST(PinnedCore, IoTaskRunsAtNominalSpeedToo) {
  Harness h;
  auto cpu = h.make(ExecMode::kPinnedCore, 1);
  h.start(cpu, 1.5, 0.0);  // pure sleep
  h.engine.run();
  EXPECT_NEAR(h.completion_times.at(0), 1.5, 1e-9);
}

TEST(PinnedCoreDeath, OversubscriptionAborts) {
  Harness h;
  auto cpu = h.make(ExecMode::kPinnedCore, 2);
  h.start(cpu, 1.0, 1.0);
  h.start(cpu, 1.0, 1.0);
  EXPECT_DEATH(h.start(cpu, 1.0, 1.0), "oversubscribed");
}

TEST(ProportionalShare, UncontendedRunsAtNominalSpeed) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, 4, 0.0);
  h.start(cpu, 2.0, 1.0);
  h.start(cpu, 2.0, 1.0);
  h.engine.run();
  // 2 CPU-bound tasks on 4 cores: no slowdown.
  for (double t : h.completion_times) EXPECT_NEAR(t, 2.0, 1e-9);
}

TEST(ProportionalShare, OverloadSlowsDownProportionally) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, 1, 0.0);
  h.start(cpu, 1.0, 1.0);
  h.start(cpu, 1.0, 1.0);
  h.engine.run();
  // Two equal CPU-bound tasks sharing one core: each takes 2 s.
  ASSERT_EQ(h.completion_times.size(), 2u);
  EXPECT_NEAR(h.completion_times[0], 2.0, 1e-9);
  EXPECT_NEAR(h.completion_times[1], 2.0, 1e-9);
}

TEST(ProportionalShare, ContextSwitchPenaltySlowsFurther) {
  Harness slow;
  auto cpu_slow = slow.make(ExecMode::kProportionalShare, 1, 1.0);
  slow.start(cpu_slow, 1.0, 1.0);
  slow.start(cpu_slow, 1.0, 1.0);
  slow.engine.run();
  // beta=1, two hungry tasks on one core: eta = 1/(1+1*(2-1)) = 0.5, so the
  // tasks finish at 4 s instead of 2 s.
  EXPECT_NEAR(slow.completion_times.back(), 4.0, 1e-9);
}

TEST(ProportionalShare, IoTasksUnaffectedByCpuContention) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, 1, 0.0);
  h.start(cpu, 1.0, 0.0);  // sleep
  h.start(cpu, 1.0, 1.0);
  h.start(cpu, 1.0, 1.0);
  h.engine.run();
  // The sleep finishes at its nominal 1 s despite the CPU overload.
  ASSERT_EQ(h.completion_times.size(), 3u);
  EXPECT_NEAR(h.completion_times[0], 1.0, 1e-9);
}

TEST(ProportionalShare, PartialCpuFractionInterpolates) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, 1, 0.0);
  // One task with 50% CPU content, alone: no contention, nominal speed.
  h.start(cpu, 2.0, 0.5);
  h.engine.run();
  EXPECT_NEAR(h.completion_times.at(0), 2.0, 1e-9);
}

TEST(ProportionalShare, WaterFillingFavorsNobodyWithEqualWeights) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, 2, 0.0);
  for (int i = 0; i < 4; ++i) h.start(cpu, 1.0, 1.0);
  h.engine.run();
  // 4 equal tasks on 2 cores: all finish together at 2 s.
  for (double t : h.completion_times) EXPECT_NEAR(t, 2.0, 1e-9);
}

TEST(ProportionalShare, HigherWeightFinishesFirst) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, 1, 0.0);
  const auto heavy = h.start(cpu, 1.0, 1.0, /*weight=*/3.0);
  const auto light = h.start(cpu, 1.0, 1.0, /*weight=*/1.0);
  h.engine.run();
  ASSERT_EQ(h.completed.size(), 2u);
  EXPECT_EQ(h.completed[0], heavy);
  EXPECT_EQ(h.completed[1], light);
}

TEST(ProportionalShare, LateArrivalSlowsEarlierTask) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, 1, 0.0);
  h.start(cpu, 2.0, 1.0);
  h.engine.schedule_at(1.0, [&] { h.start(cpu, 2.0, 1.0); });
  h.engine.run();
  // Task A runs alone for 1 s (half done), then shares: finishes at 3 s.
  // Task B gets half speed for 2 s then full: finishes at 1+2+1 = 4 s.
  ASSERT_EQ(h.completion_times.size(), 2u);
  EXPECT_NEAR(h.completion_times[0], 3.0, 1e-6);
  EXPECT_NEAR(h.completion_times[1], 4.0, 1e-6);
}

TEST(CpuSystem, RunningCountTracksTasks) {
  Harness h;
  auto cpu = h.make(ExecMode::kPinnedCore, 3);
  EXPECT_EQ(cpu.running(), 0u);
  h.start(cpu, 1.0, 1.0);
  h.start(cpu, 2.0, 1.0);
  EXPECT_EQ(cpu.running(), 2u);
  h.engine.run();
  EXPECT_EQ(cpu.running(), 0u);
}

TEST(CpuSystem, BusyCoreSecondsAccumulate) {
  Harness h;
  auto cpu = h.make(ExecMode::kPinnedCore, 2);
  h.start(cpu, 2.0, 1.0);
  h.start(cpu, 2.0, 0.5);
  h.engine.run();
  // 2 s at 1.0 core + 2 s at 0.5 core = 3 core-seconds.
  EXPECT_NEAR(cpu.busy_core_seconds(), 3.0, 1e-9);
}

TEST(CpuSystemDeath, RejectsBadArguments) {
  Harness h;
  auto cpu = h.make(ExecMode::kPinnedCore, 1);
  EXPECT_DEATH(h.start(cpu, 0.0, 1.0), "service");
  EXPECT_DEATH(h.start(cpu, 1.0, 2.0), "cpu_fraction");
  EXPECT_DEATH(h.start(cpu, 1.0, 1.0, 0.0), "weight");
}

// Property: in proportional-share mode, total work is conserved — the sum
// of service times equals the busy core-seconds for CPU-bound tasks with no
// penalty.
class WorkConservation : public ::testing::TestWithParam<int> {};

TEST_P(WorkConservation, BusyCoreSecondsEqualTotalService) {
  Harness h;
  auto cpu = h.make(ExecMode::kProportionalShare, GetParam(), 0.0);
  double total = 0.0;
  unsigned state = 12345u + static_cast<unsigned>(GetParam());
  for (int i = 0; i < 20; ++i) {
    state = state * 1664525u + 1013904223u;
    const double service = 0.5 + static_cast<double>(state % 100) / 50.0;
    h.start(cpu, service, 1.0);
    total += service;
  }
  h.engine.run();
  EXPECT_NEAR(cpu.busy_core_seconds(), total, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Cores, WorkConservation,
                         ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace whisk::os
