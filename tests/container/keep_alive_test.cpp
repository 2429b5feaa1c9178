#include "container/keep_alive.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "container/pool.h"

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

TEST(KeepAliveSpec, ParsesAndRoundTrips) {
  const auto spec = KeepAliveSpec::parse("TTL?IDLE-S=600");
  EXPECT_EQ(spec.name, "ttl");
  EXPECT_EQ(spec.params.at("idle-s"), "600");
  EXPECT_EQ(spec.to_string(), "ttl?idle-s=600");
  EXPECT_EQ(KeepAliveSpec::parse(spec.to_string()), spec);
}

TEST(KeepAliveSpec, AliasResolvesToCanonicalName) {
  EXPECT_EQ(KeepAliveSpec::parse("fixed?idle-s=5").name, "ttl");
}

TEST(KeepAliveSpecDeath, UnknownNamesAndKeysListAlternatives) {
  EXPECT_DEATH((void)KeepAliveSpec::parse("mru"),
               "unknown keep-alive policy \"mru\".*lru.*ttl.*pool-target");
  EXPECT_DEATH((void)KeepAliveSpec::parse("lru?idle-s=3"),
               "\"lru\" does not take parameter \"idle-s\"");
  EXPECT_DEATH((void)KeepAliveSpec::parse("ttl?idle-s=banana"),
               "not a finite number");
  EXPECT_DEATH((void)KeepAliveSpec::parse("ttl?idle-s=0"),
               "idle-s.*must be > 0");
  // Case-variant duplicates on a hand-built spec abort instead of one
  // value silently winning.
  {
    KeepAliveSpec dup;
    dup.name = "ttl";
    dup.params["IDLE-S"] = "5";
    dup.params["idle-s"] = "600";
    EXPECT_DEATH((void)dup.normalized(), "sets parameter \"idle-s\" twice");
  }
}

TEST(KeepAliveSpecDeath, OutOfRangeValuesQuoteTheInput) {
  EXPECT_DEATH((void)KeepAliveSpec::parse("ttl?idle-s=-1e-9"),
               "keep-alive policy \"ttl\": idle-s must be > 0, got "
               "\"-1e-9\"");
  {
    // A hand-built spec is checked on construction too.
    const KeepAliveSpec bad{"ttl", {{"idle-s", "0"}}};
    EXPECT_DEATH((void)make_keep_alive(bad), "idle-s must be > 0, got \"0\"");
  }
}

TEST(KeepAliveRegistry, BuiltinsRegisteredAndRuntimeExtensible) {
  const auto names = KeepAlivePolicyRegistry::instance().names();
  auto has = [&](std::string_view n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("lru"));
  EXPECT_TRUE(has("ttl"));
  EXPECT_TRUE(has("pool-target"));

  // The extension recipe: register at runtime, construct through the
  // normal surface.
  class KeepNewest final : public KeepAlivePolicy {
    std::string_view name() const override { return "keep-newest"; }
    std::size_t victim(std::span<const IdleCandidate> c) override {
      std::size_t best = 0;
      for (std::size_t i = 1; i < c.size(); ++i) {
        if (c[i].last_used > c[best].last_used) best = i;
      }
      return best;
    }
  };
  if (!KeepAlivePolicyRegistry::instance().contains("keep-newest")) {
    KeepAlivePolicyRegistry::instance().register_factory(
        "keep-newest", [](const KeepAliveSpec&) {
          return std::make_unique<KeepNewest>();
        });
  }
  ContainerPool pool(2.0 * kMb, make_keep_alive(KeepAliveSpec{"keep-newest", {}}));
  make_idle(pool, 1, 1.0);
  make_idle(pool, 2, 5.0);
  pool.evict_idle_until_free(kMb);
  EXPECT_TRUE(pool.acquire_warm(1).has_value()) << "oldest survives";
  EXPECT_FALSE(pool.acquire_warm(2).has_value()) << "newest evicted";
}

TEST(KeepAliveLru, MatchesTheHardcodedRule) {
  // Default-constructed pool == explicit lru == the pre-registry behavior:
  // oldest last_used evicted first, never more than needed.
  ContainerPool pool(4.0 * kMb, make_keep_alive(KeepAliveSpec{}));
  make_idle(pool, 1, 3.0);
  make_idle(pool, 2, 1.0);
  make_idle(pool, 3, 2.0);
  EXPECT_EQ(pool.evict_idle_until_free(kMb), 0u) << "already free";
  const auto cid = pool.begin_creation(kMb);
  ASSERT_TRUE(cid.has_value());
  EXPECT_EQ(pool.evict_idle_until_free(kMb), 1u);
  EXPECT_FALSE(pool.acquire_warm(2).has_value()) << "oldest (t=1) evicted";
  EXPECT_TRUE(pool.acquire_warm(3).has_value());
}

TEST(KeepAliveLru, NeverExpires) {
  ContainerPool pool(4.0 * kMb);
  make_idle(pool, 1, 0.0);
  EXPECT_EQ(pool.sweep_expired(1e9), 0u);
  EXPECT_EQ(pool.expirations(), 0u);
  EXPECT_FALSE(pool.keep_alive().may_expire());
}

TEST(KeepAliveTtl, SweepsIdleContainersPastTheirTtl) {
  ContainerPool pool(4.0 * kMb,
                     make_keep_alive(KeepAliveSpec::parse("ttl?idle-s=10")));
  make_idle(pool, 1, 0.0);
  make_idle(pool, 2, 7.0);
  EXPECT_EQ(pool.sweep_expired(5.0), 0u) << "nothing idle for > 10 s yet";
  EXPECT_EQ(pool.sweep_expired(12.0), 1u) << "the t=0 release lapsed";
  EXPECT_FALSE(pool.acquire_warm(1).has_value());
  EXPECT_TRUE(pool.acquire_warm(2).has_value());
  EXPECT_EQ(pool.expirations(), 1u);
  EXPECT_EQ(pool.evictions(), 0u) << "expiry is not a pressure eviction";
}

TEST(KeepAliveTtl, BusyContainersNeverExpire) {
  ContainerPool pool(4.0 * kMb,
                     make_keep_alive(KeepAliveSpec::parse("ttl?idle-s=1")));
  make_idle(pool, 1, 0.0);
  const auto busy = pool.acquire_warm(1);
  ASSERT_TRUE(busy.has_value());
  EXPECT_EQ(pool.sweep_expired(100.0), 0u);
  EXPECT_EQ(pool.busy_count(), 1u);
}

TEST(KeepAlivePoolTarget, ShieldsTheFloorAndEvictsAboveIt) {
  ContainerPool pool(
      4.0 * kMb,
      make_keep_alive(KeepAliveSpec::parse("pool-target?floor=1")));
  make_idle(pool, 1, 1.0);  // function 1: single idle -> protected
  make_idle(pool, 2, 2.0);
  make_idle(pool, 2, 3.0);  // function 2: two idle -> one evictable
  make_idle(pool, 3, 0.5);  // function 3: single idle -> protected
  // Pool is full; asking for one slot must evict the *oldest evictable*
  // (function 2 at t=2), not the globally oldest (function 3 at t=0.5).
  EXPECT_EQ(pool.evict_idle_until_free(kMb), 1u);
  EXPECT_EQ(pool.idle_count_of(2), 1u);
  EXPECT_EQ(pool.idle_count_of(1), 1u);
  EXPECT_EQ(pool.idle_count_of(3), 1u);
}

TEST(KeepAlivePoolTarget, FloorGoesSoftWhenEveryCandidateIsProtected) {
  ContainerPool pool(
      2.0 * kMb,
      make_keep_alive(KeepAliveSpec::parse("pool-target?floor=1")));
  make_idle(pool, 1, 1.0);
  make_idle(pool, 2, 2.0);
  // Both functions are at their floor; plain LRU applies rather than
  // deadlocking the memory request.
  EXPECT_EQ(pool.evict_idle_until_free(kMb), 1u);
  EXPECT_FALSE(pool.acquire_warm(1).has_value()) << "oldest evicted";
}

}  // namespace
}  // namespace whisk::container
