#include "container/pool.h"

#include <gtest/gtest.h>

namespace whisk::container {
namespace {

constexpr double kMb = 160.0;

ContainerId make_idle(ContainerPool& pool, workload::FunctionId fn,
                      sim::SimTime t) {
  const auto cid = pool.begin_creation(kMb);
  EXPECT_TRUE(cid.has_value());
  pool.finish_creation_busy(*cid, fn);
  pool.release(*cid, t);
  return *cid;
}

TEST(Pool, StartsEmpty) {
  ContainerPool pool(1024.0);
  EXPECT_EQ(pool.total_containers(), 0u);
  EXPECT_DOUBLE_EQ(pool.memory_used_mb(), 0.0);
  EXPECT_DOUBLE_EQ(pool.memory_free_mb(), 1024.0);
}

TEST(Pool, CreationReservesMemory) {
  ContainerPool pool(1024.0);
  const auto cid = pool.begin_creation(kMb);
  ASSERT_TRUE(cid.has_value());
  EXPECT_DOUBLE_EQ(pool.memory_used_mb(), kMb);
  EXPECT_EQ(pool.creating_count(), 1u);
  EXPECT_EQ(pool.creations(), 1u);
}

TEST(Pool, CreationFailsWhenMemoryExhausted) {
  ContainerPool pool(300.0);
  EXPECT_TRUE(pool.begin_creation(kMb).has_value());
  EXPECT_FALSE(pool.begin_creation(kMb).has_value())
      << "2 x 160 MB does not fit in 300 MB";
}

TEST(Pool, CancelCreationReleasesReservation) {
  ContainerPool pool(200.0);
  const auto cid = pool.begin_creation(kMb);
  pool.cancel_creation(*cid);
  EXPECT_DOUBLE_EQ(pool.memory_used_mb(), 0.0);
  EXPECT_TRUE(pool.begin_creation(kMb).has_value());
}

TEST(Pool, WarmAcquireMatchesFunction) {
  ContainerPool pool(1024.0);
  make_idle(pool, 3, 1.0);
  EXPECT_FALSE(pool.acquire_warm(5).has_value())
      << "no container of function 5";
  const auto got = pool.acquire_warm(3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(pool.info(*got).state, ContainerState::kBusy);
  EXPECT_FALSE(pool.acquire_warm(3).has_value()) << "already taken";
}

TEST(Pool, WarmAcquirePrefersMostRecentlyUsed) {
  ContainerPool pool(1024.0);
  const auto old_cid = make_idle(pool, 1, 1.0);
  const auto new_cid = make_idle(pool, 1, 2.0);
  const auto got = pool.acquire_warm(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, new_cid);
  (void)old_cid;
}

TEST(Pool, PrewarmLifecycle) {
  ContainerPool pool(1024.0);
  const auto cid = pool.begin_creation(kMb);
  pool.finish_creation_prewarm(*cid);
  EXPECT_EQ(pool.prewarm_count(), 1u);
  const auto got = pool.acquire_prewarm();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(pool.prewarm_count(), 0u);
  pool.assign_function(*got, 4);
  pool.release(*got, 1.0);
  EXPECT_EQ(pool.idle_count_of(4), 1u);
}

TEST(Pool, AcquirePrewarmEmptyReturnsNullopt) {
  ContainerPool pool(1024.0);
  EXPECT_FALSE(pool.acquire_prewarm().has_value());
}

TEST(Pool, ReleaseMakesWarmAvailableAgain) {
  ContainerPool pool(1024.0);
  make_idle(pool, 2, 1.0);
  const auto got = pool.acquire_warm(2);
  pool.release(*got, 2.0);
  EXPECT_TRUE(pool.acquire_warm(2).has_value());
}

TEST(Pool, EvictsLeastRecentlyUsedFirst) {
  ContainerPool pool(2.0 * kMb);
  const auto older = make_idle(pool, 1, 1.0);
  const auto newer = make_idle(pool, 2, 5.0);
  // Pool full; make room for one more container.
  const std::size_t evicted = pool.evict_idle_until_free(kMb);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(pool.evictions(), 1u);
  // The older container (function 1) must be the victim.
  EXPECT_FALSE(pool.acquire_warm(1).has_value());
  EXPECT_TRUE(pool.acquire_warm(2).has_value());
  (void)older;
  (void)newer;
}

TEST(Pool, EvictionStopsWhenEnoughFree) {
  ContainerPool pool(4.0 * kMb);
  make_idle(pool, 1, 1.0);
  make_idle(pool, 2, 2.0);
  make_idle(pool, 3, 3.0);
  const std::size_t evicted = pool.evict_idle_until_free(2.0 * kMb);
  EXPECT_EQ(evicted, 1u) << "one eviction already frees 2 x 160 MB";
}

TEST(Pool, EvictionNeverTouchesBusyContainers) {
  ContainerPool pool(2.0 * kMb);
  make_idle(pool, 1, 1.0);
  const auto busy = pool.acquire_warm(1);
  ASSERT_TRUE(busy.has_value());
  const std::size_t evicted = pool.evict_idle_until_free(2.0 * kMb);
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(pool.busy_count(), 1u);
}

TEST(Pool, MemoryReclaimableCountsIdle) {
  ContainerPool pool(3.0 * kMb);
  make_idle(pool, 1, 1.0);
  const auto cid = pool.begin_creation(kMb);
  pool.finish_creation_busy(*cid, 2);
  EXPECT_DOUBLE_EQ(pool.memory_free_mb(), kMb);
  EXPECT_DOUBLE_EQ(pool.memory_reclaimable_mb(), 2.0 * kMb)
      << "free + the idle container";
}

TEST(Pool, DestroyIdleContainer) {
  ContainerPool pool(1024.0);
  const auto cid = make_idle(pool, 1, 1.0);
  pool.destroy(cid);
  EXPECT_EQ(pool.total_containers(), 0u);
  EXPECT_EQ(pool.idle_count_of(1), 0u);
  EXPECT_DOUBLE_EQ(pool.memory_used_mb(), 0.0);
}

TEST(Pool, StateCountersConsistent) {
  ContainerPool pool(10.0 * kMb);
  make_idle(pool, 1, 1.0);
  make_idle(pool, 1, 2.0);
  const auto busy = pool.acquire_warm(1);
  const auto creating = pool.begin_creation(kMb);
  const auto pre = pool.begin_creation(kMb);
  pool.finish_creation_prewarm(*pre);
  EXPECT_EQ(pool.idle_count(), 1u);
  EXPECT_EQ(pool.busy_count(), 1u);
  EXPECT_EQ(pool.creating_count(), 1u);
  EXPECT_EQ(pool.prewarm_count(), 1u);
  EXPECT_EQ(pool.total_containers(), 4u);
  (void)busy;
  (void)creating;
}

TEST(PoolDeath, DestroyBusyAborts) {
  ContainerPool pool(1024.0);
  make_idle(pool, 1, 1.0);
  const auto busy = pool.acquire_warm(1);
  EXPECT_DEATH(pool.destroy(*busy), "busy");
}

TEST(PoolDeath, ReleaseNonBusyAborts) {
  ContainerPool pool(1024.0);
  const auto cid = make_idle(pool, 1, 1.0);
  EXPECT_DEATH(pool.release(cid, 2.0), "not busy");
}

TEST(PoolDeath, UnknownIdAborts) {
  ContainerPool pool(1024.0);
  EXPECT_DEATH((void)pool.info(42), "unknown container");
}

TEST(PoolDeath, FinishCreationTwiceAborts) {
  ContainerPool pool(1024.0);
  const auto cid = pool.begin_creation(kMb);
  pool.finish_creation_busy(*cid, 1);
  EXPECT_DEATH(pool.finish_creation_busy(*cid, 1), "non-creating");
}

TEST(Pool, LruOrderSurvivesPrewarmAssignAndRelease) {
  // A prewarm-origin container enters the LRU order at its *release* time,
  // not its creation or assign_function time: releasing it last must make
  // it the most-recently-used and the old warm container the victim.
  ContainerPool pool(2.0 * kMb);
  const auto old_warm = make_idle(pool, 7, 1.0);
  const auto pre = pool.begin_creation(kMb);
  ASSERT_TRUE(pre.has_value());
  pool.finish_creation_prewarm(*pre);
  const auto got = pool.acquire_prewarm();
  ASSERT_TRUE(got.has_value());
  pool.assign_function(*got, 7);
  pool.release(*got, 5.0);
  EXPECT_EQ(pool.idle_count_of(7), 2u);
  // MRU-first acquire returns the newly released prewarm-origin container.
  EXPECT_EQ(pool.acquire_warm(7), got);
  pool.release(*got, 6.0);
  // Under pressure the stale original is evicted, not the fresh one.
  EXPECT_EQ(pool.evict_idle_until_free(kMb), 1u);
  EXPECT_EQ(pool.acquire_warm(7), got);
  (void)old_warm;
}

TEST(Pool, CancelCreationKeepsAccountingExactUnderPressure) {
  ContainerPool pool(2.0 * kMb);
  const auto a = pool.begin_creation(kMb);
  const auto b = pool.begin_creation(kMb);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(pool.begin_creation(kMb).has_value()) << "pool full";
  EXPECT_EQ(pool.creations(), 2u);
  pool.cancel_creation(*a);
  EXPECT_DOUBLE_EQ(pool.memory_used_mb(), kMb);
  EXPECT_EQ(pool.creating_count(), 1u);
  EXPECT_EQ(pool.total_containers(), 1u);
  // The freed reservation is immediately reusable, and the cancelled id is
  // gone for good.
  EXPECT_TRUE(pool.begin_creation(kMb).has_value());
  EXPECT_DEATH(pool.cancel_creation(*a), "unknown container");
  // creations() counts begin_creation calls; cancellation does not rewind
  // it (it is a lifetime counter, not a live gauge).
  EXPECT_EQ(pool.creations(), 3u);
}

TEST(PoolDeath, CancelCreationRejectsNonCreatingStates) {
  ContainerPool pool(4.0 * kMb);
  const auto idle = make_idle(pool, 1, 1.0);
  EXPECT_DEATH(pool.cancel_creation(idle), "non-creating");
  const auto pre = pool.begin_creation(kMb);
  pool.finish_creation_prewarm(*pre);
  EXPECT_DEATH(pool.cancel_creation(*pre), "non-creating");
}

TEST(Pool, EvictionRefusesBusyAndCreatingContainers) {
  ContainerPool pool(3.0 * kMb);
  make_idle(pool, 1, 1.0);
  const auto busy = pool.acquire_warm(1);
  ASSERT_TRUE(busy.has_value());
  const auto creating = pool.begin_creation(kMb);
  ASSERT_TRUE(creating.has_value());
  make_idle(pool, 2, 2.0);
  // Pool holds one busy, one creating, one idle. Asking for 2 slots can
  // only reclaim the idle one; busy/creating are never victims no matter
  // how much is requested.
  EXPECT_EQ(pool.evict_idle_until_free(2.0 * kMb), 1u);
  EXPECT_EQ(pool.busy_count(), 1u);
  EXPECT_EQ(pool.creating_count(), 1u);
  EXPECT_DOUBLE_EQ(pool.memory_free_mb(), kMb);
  // Prewarm containers are likewise not eviction candidates.
  const auto pre = pool.begin_creation(kMb);
  pool.finish_creation_prewarm(*pre);
  EXPECT_EQ(pool.evict_idle_until_free(3.0 * kMb), 0u);
  EXPECT_EQ(pool.prewarm_count(), 1u);
}

// Property: arbitrary operation sequences keep memory accounting exact.
class PoolAccounting : public ::testing::TestWithParam<int> {};

TEST_P(PoolAccounting, MemoryMatchesLiveContainers) {
  ContainerPool pool(20.0 * kMb);
  unsigned state = static_cast<unsigned>(GetParam()) * 7919u + 3u;
  std::vector<ContainerId> busy;
  double t = 0.0;
  for (int step = 0; step < 300; ++step) {
    state = state * 1664525u + 1013904223u;
    t += 0.1;
    switch (state % 4) {
      case 0: {  // create-or-evict a container for a random function
        const auto fn = static_cast<workload::FunctionId>(state % 5);
        if (pool.memory_free_mb() < kMb) pool.evict_idle_until_free(kMb);
        if (auto cid = pool.begin_creation(kMb)) {
          pool.finish_creation_busy(*cid, fn);
          busy.push_back(*cid);
        }
        break;
      }
      case 1: {  // acquire warm
        const auto fn = static_cast<workload::FunctionId>(state % 5);
        if (auto cid = pool.acquire_warm(fn)) busy.push_back(*cid);
        break;
      }
      case 2:  // release one busy container
      case 3:
        if (!busy.empty()) {
          pool.release(busy.back(), t);
          busy.pop_back();
        }
        break;
    }
    ASSERT_NEAR(pool.memory_used_mb(),
                static_cast<double>(pool.total_containers()) * kMb, 1e-6);
    ASSERT_EQ(pool.busy_count(), busy.size());
    ASSERT_LE(pool.memory_used_mb(), pool.memory_limit_mb() + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolAccounting, ::testing::Range(0, 6));

}  // namespace
}  // namespace whisk::container
