#include "cluster/cluster_spec.h"

#include <gtest/gtest.h>

#include "container/keep_alive.h"

namespace whisk::cluster {
namespace {

TEST(ClusterSpecTest, DefaultIsOneHomogeneousNode) {
  const ClusterSpec spec;
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].name, "node");
  EXPECT_EQ(spec.groups[0].count, 1);
  EXPECT_EQ(spec.keep_alive.name, "lru");
  EXPECT_TRUE(spec.events.empty());
  EXPECT_EQ(spec.initial_nodes(), 1u);
  EXPECT_EQ(spec, ClusterSpec::homogeneous(1));
}

TEST(ClusterSpecTest, ParsesTheFullGrammar) {
  const auto spec = ClusterSpec::parse(
      "big:4?cores=16&memory-mb=65536,small:8?cores=4; "
      "keep-alive=ttl?idle-s=600; "
      "events=drain@120:big/0,join@300:small");
  ASSERT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(spec.groups[0].name, "big");
  EXPECT_EQ(spec.groups[0].count, 4);
  EXPECT_EQ(spec.groups[0].params.at("cores"), "16");
  EXPECT_EQ(spec.groups[0].params.at("memory-mb"), "65536");
  EXPECT_EQ(spec.groups[1].name, "small");
  EXPECT_EQ(spec.groups[1].count, 8);
  EXPECT_EQ(spec.keep_alive.name, "ttl");
  EXPECT_EQ(spec.keep_alive.params.at("idle-s"), "600");
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0].kind, LifecycleKind::kDrain);
  EXPECT_EQ(spec.events[0].time, 120.0);
  EXPECT_EQ(spec.events[0].group, "big");
  EXPECT_EQ(spec.events[0].node, 0);
  EXPECT_EQ(spec.events[1].kind, LifecycleKind::kJoin);
  EXPECT_EQ(spec.initial_nodes(), 12u);
  EXPECT_EQ(spec.initial_cores(10), 4 * 16 + 8 * 4);
}

TEST(ClusterSpecTest, RoundTripsCanonicalForm) {
  const char* text =
      "big:4?cores=16&memory-mb=65536,small:8?cores=4; "
      "keep-alive=ttl?idle-s=600; events=drain@120:big/0,join@300:small";
  const auto spec = ClusterSpec::parse(text);
  EXPECT_EQ(spec.to_string(), text);
  EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec);
}

TEST(ClusterSpecTest, RoundTripsCompactForm) {
  const auto spec = ClusterSpec::parse(
      "big:2?cores=16+small:4|keep-alive=ttl?idle-s=300|"
      "events=fail@20:small/1+join@30:small");
  EXPECT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(ClusterSpec::parse(spec.to_compact_string()), spec);
  EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec);
  // The compact form never contains the campaign grid separators.
  EXPECT_EQ(spec.to_compact_string().find(';'), std::string::npos);
  EXPECT_EQ(spec.to_compact_string().find(','), std::string::npos);
}

TEST(ClusterSpecTest, RoundTripsOverEveryRegisteredKeepAlivePolicy) {
  for (const auto& name :
       container::KeepAlivePolicyRegistry::instance().names()) {
    const auto spec = ClusterSpec::parse("node:2; keep-alive=" + name);
    EXPECT_EQ(spec.keep_alive.name, name);
    EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec) << name;
    EXPECT_EQ(ClusterSpec::parse(spec.to_compact_string()), spec) << name;
  }
}

TEST(ClusterSpecTest, DefaultSectionsAreOmittedFromToString) {
  EXPECT_EQ(ClusterSpec::homogeneous(3).to_string(), "node:3");
  EXPECT_EQ(ClusterSpec::parse("node:3").to_string(), "node:3");
}

TEST(ClusterSpecTest, CountDefaultsToOneAndNamesAreCaseFolded) {
  const auto spec = ClusterSpec::parse("BIG?cores=2");
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].name, "big");
  EXPECT_EQ(spec.groups[0].count, 1);
}

TEST(ClusterSpecTest, EventTimesRoundTripAtFullPrecision) {
  // A time needing more than 10 significant digits must survive
  // parse(to_string()) bit-for-bit (and simple times stay short).
  const auto spec = ClusterSpec::parse(
      "node:2; events=drain@999999999.99:node/0,fail@0.5:node/1");
  EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec);
  EXPECT_NE(spec.to_string().find("fail@0.5:"), std::string::npos);
  EXPECT_NE(spec.to_string().find("drain@999999999.99:"),
            std::string::npos);
}

TEST(ClusterSpecTest, EventsAreSortedByTime) {
  const auto spec = ClusterSpec::parse(
      "node:2; events=fail@50:node/1,drain@10:node/0");
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0].kind, LifecycleKind::kDrain);
  EXPECT_EQ(spec.events[1].kind, LifecycleKind::kFail);
}

TEST(ClusterSpecTest, JoinRaisesTheValidIndexBound) {
  // node/2 only exists because a join precedes it.
  const auto spec = ClusterSpec::parse(
      "node:2; events=join@10:node,drain@20:node/2");
  EXPECT_EQ(spec.events.size(), 2u);
}

TEST(ClusterSpecTest, GroupNodeParamsApplyOverrides) {
  const auto spec = ClusterSpec::parse(
      "big:1?cores=16&memory-mb=65536,small:2; keep-alive=ttl?idle-s=60");
  node::NodeParams base;
  base.cores = 10;
  base.memory_limit_mb = 1024.0;
  const auto big = spec.node_params(0, base);
  EXPECT_EQ(big.cores, 16);
  EXPECT_DOUBLE_EQ(big.memory_limit_mb, 65536.0);
  EXPECT_EQ(big.keep_alive.name, "ttl");
  const auto small = spec.node_params(1, base);
  EXPECT_EQ(small.cores, 10) << "inherits the base";
  EXPECT_DOUBLE_EQ(small.memory_limit_mb, 1024.0);
}

TEST(ClusterSpecDeath, DiagnosticsEchoTheInputAndListValidNames) {
  EXPECT_DEATH((void)ClusterSpec::parse("big:2?cpus=4"),
               "\"big\" does not take parameter \"cpus\".*cores, "
               "cost-per-hour, max-nodes, memory-mb, min-nodes");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; keep-alive=mru"),
               "unknown keep-alive policy \"mru\".*lru.*ttl.*pool-target");
  EXPECT_DEATH(
      (void)ClusterSpec::parse("node:2; keep-alive=ttl?timeout=3"),
      "\"ttl\" does not take parameter \"timeout\".*idle-s");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; events=drain@10:huge/0"),
               "targets unknown group \"huge\".*groups: node");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; events=drain@10:node/7"),
               "has only 2 node");
  // The schedule is validated in firing order: a drain whose target only
  // exists after a later join is a parse-time error, not a mid-sweep one.
  EXPECT_DEATH(
      (void)ClusterSpec::parse("node:1; events=drain@5:node/1,join@10:node"),
      "has only 1 node\\(s\\) at t=5");
  // So are duplicate drains/fails of one node; fail-after-drain stays
  // legal (mirrors the runtime state rules).
  EXPECT_DEATH((void)ClusterSpec::parse(
                   "node:2; events=drain@5:node/0,drain@9:node/0"),
               "already drained");
  EXPECT_DEATH((void)ClusterSpec::parse(
                   "node:2; events=fail@5:node/0,drain@9:node/0"),
               "already failed");
  EXPECT_EQ(ClusterSpec::parse("node:2; events=drain@5:node/0,fail@9:node/0")
                .events.size(),
            2u);
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; events=reboot@10:node/0"),
               "unknown kind \"reboot\"");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; events=drain@10:node"),
               "names no node index");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; events=join@10:node/0"),
               "join events add a fresh node");
  EXPECT_DEATH((void)ClusterSpec::parse("node:x"), "not a whole number");
  // A '+' (or any list/section separator) inside a value would reparse as
  // a split point and break the round-trip contract, so it is rejected up
  // front with a spelling hint.
  {
    ClusterSpec spec;
    spec.groups[0].params["memory-mb"] = "6.4e+4";
    EXPECT_DEATH((void)spec.normalized(),
                 "contains a spec separator.*plain-decimal");
  }
  EXPECT_DEATH((void)ClusterSpec::parse("node:0"), "zero nodes at t=0");
  EXPECT_DEATH((void)ClusterSpec::parse("node:1,node:2"),
               "lists group \"node\" twice");
  EXPECT_DEATH((void)ClusterSpec::parse("a b:2"), "not \\[a-z0-9_-\\]\\+");
  EXPECT_DEATH((void)ClusterSpec::parse(""), "empty cluster spec");
}

TEST(ClusterSpecTest, DefaultSectionsMeanAbsent) {
  // A section spelled at its default is the same deployment as one that
  // leaves it out: equal values, one rendering.
  const auto spelled = ClusterSpec::parse(
      "node:2; keep-alive=lru; autoscaler=none; faults=none; "
      "resilience=none");
  const auto bare = ClusterSpec::parse("node:2");
  EXPECT_EQ(spelled, bare);
  EXPECT_EQ(spelled.to_string(), "node:2");
  EXPECT_EQ(spelled.to_compact_string(), "node:2");
  EXPECT_EQ(ClusterSpec::parse("node:2|keep-alive=lru|autoscaler=none"),
            bare);
  EXPECT_EQ(ClusterSpec::parse(spelled.to_string()), spelled);
}

TEST(ClusterSpecTest, DeploymentKeepAliveAlwaysReachesTheNodes) {
  // The deployment owns the keep-alive policy: node_params() stamps it
  // over whatever the base NodeParams carries, default LRU included.
  node::NodeParams base;
  base.keep_alive = container::KeepAliveSpec::parse("ttl?idle-s=60");
  EXPECT_EQ(ClusterSpec::parse("node:2").node_params(0, base).keep_alive,
            container::KeepAliveSpec{});
  EXPECT_EQ(ClusterSpec::parse("node:2; keep-alive=pool-target?floor=2")
                .node_params(0, base)
                .keep_alive.name,
            "pool-target");
}

TEST(ClusterSpecTest, HomogeneousIsAlreadyCanonical) {
  for (int n : {1, 2, 7, 64}) {
    const auto spec = ClusterSpec::homogeneous(n);
    EXPECT_TRUE(spec.canonical);
    ClusterSpec raw = spec;
    raw.canonical = false;
    const auto walked = raw.normalized();
    EXPECT_EQ(walked, spec) << n;
    EXPECT_EQ(walked.to_string(), spec.to_string()) << n;
    EXPECT_EQ(ClusterSpec::parse("node:" + std::to_string(n)), spec) << n;
  }
  EXPECT_DEATH((void)ClusterSpec::homogeneous(0), "at least one node");
}

TEST(ClusterSpecTest, AutoscalerAndSloSectionsRoundTrip) {
  const char* text =
      "big:2?cores=16&cost-per-hour=0.5&max-nodes=6,small:4?cost-per-hour="
      "0.1&min-nodes=2; autoscaler=target-util?high=0.8&low=0.2; "
      "slo=p99<2.5";
  const auto spec = ClusterSpec::parse(text);
  EXPECT_EQ(spec.to_string(), text);
  EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec);
  EXPECT_EQ(ClusterSpec::parse(spec.to_compact_string()), spec);
  EXPECT_EQ(spec.autoscaler.name, "target-util");
  EXPECT_TRUE(spec.slo_set);
  EXPECT_EQ(spec.slo.metric, "p99");
  EXPECT_DOUBLE_EQ(spec.slo.threshold_s, 2.5);
  EXPECT_DOUBLE_EQ(spec.group_cost_per_hour(0), 0.5);
  EXPECT_DOUBLE_EQ(spec.group_cost_per_hour(1), 0.1);
  EXPECT_EQ(spec.group_max_nodes(0), 6u);
  EXPECT_EQ(spec.group_min_nodes(1), 2u);
  EXPECT_TRUE(spec.needs_in_flight_tracking());
}

TEST(ClusterSpecTest, ScalingBoundsDefaultToOneAndUnbounded) {
  const auto spec = ClusterSpec::parse("node:3,burst:0");
  EXPECT_EQ(spec.group_min_nodes(0), 1u)
      << "populated groups never autoscale to zero";
  EXPECT_EQ(spec.group_min_nodes(1), 0u)
      << "an initially-empty join-only group may stay empty";
  EXPECT_EQ(spec.group_max_nodes(0), 1000000u);
  EXPECT_DOUBLE_EQ(spec.group_cost_per_hour(0), 0.0);
  EXPECT_FALSE(spec.needs_in_flight_tracking());
}

TEST(ClusterSpecTest, UnderscoreAliasesNormalizeToCanonicalKeys) {
  const auto spec = ClusterSpec::parse(
      "node:2?cost_per_hour=0.3&min_nodes=1&max_nodes=4");
  EXPECT_DOUBLE_EQ(spec.group_cost_per_hour(0), 0.3);
  EXPECT_EQ(spec.group_min_nodes(0), 1u);
  EXPECT_EQ(spec.group_max_nodes(0), 4u);
  EXPECT_NE(spec.to_string().find("cost-per-hour=0.3"), std::string::npos);
}

TEST(ClusterSpecDeath, AutoscalerAndSloSectionsAreValidated) {
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; autoscaler=warp-scaler"),
               "unknown autoscaler \"warp-scaler\"");
  EXPECT_DEATH(
      (void)ClusterSpec::parse("node:2; autoscaler=target-util?warp=1"),
      "does not take parameter \"warp\"");
  EXPECT_DEATH((void)ClusterSpec::parse(
                   "node:2; autoscaler=none; autoscaler=target-util"),
               "twice");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; slo=p42<1"),
               "mean, p50, p75, p95, p99, max");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; slo=p99<0"), "");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; slo=p99"), "");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2?min-nodes=3&max-nodes=2"),
               "");
  EXPECT_DEATH((void)ClusterSpec::parse("node:5?max-nodes=3"), "");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2?cost-per-hour=-1"), "");
}

TEST(ClusterSpecTest, ZeroCountGroupIsValidWithOtherNodes) {
  // An initially-empty group that only ever receives joins.
  const auto spec =
      ClusterSpec::parse("core:2,burst:0; events=join@5:burst");
  EXPECT_EQ(spec.initial_nodes(), 2u);
  EXPECT_EQ(spec.groups[1].count, 0);
}

}  // namespace
}  // namespace whisk::cluster
