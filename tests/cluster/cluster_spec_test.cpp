#include "cluster/cluster_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "cluster/fault.h"
#include "container/keep_alive.h"
#include "util/table.h"

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

TEST(ClusterSpecDeath, OutOfRangeValuesQuoteTheInput) {
  EXPECT_DEATH((void)ClusterSpec::parse("node:2?memory-mb=-1e-7"),
               "cluster group \"node\": memory-mb must be > 0, got "
               "\"-1e-7\"");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2?cores=0"),
               "cores must be in \\[1, 100000\\], got \"0\"");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; slo=p99<-1e-7"),
               "slo threshold must be in \\(0, 1e9\\] seconds, got "
               "\"-1e-7\"");
}

TEST(ClusterSpecDeath, MisspeltSectionsNameTheValidKeys) {
  EXPECT_DEATH((void)ClusterSpec::parse("node:2|autoscalr=target-util"),
               "unknown section \"autoscalr\"; sections: keep-alive, "
               "autoscaler, faults, resilience, slo, events");
  EXPECT_DEATH((void)ClusterSpec::parse("autoscalr=target-util"),
               "unknown section \"autoscalr\"");
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; big:1"),
               "two group-list sections.*sections: keep-alive, autoscaler");
}

TEST(ClusterSpecTest, ZeroCountGroupIsValidWithOtherNodes) {
  // An initially-empty group that only ever receives joins.
  const auto spec =
      ClusterSpec::parse("core:2,burst:0; events=join@5:burst");
  EXPECT_EQ(spec.initial_nodes(), 2u);
  EXPECT_EQ(spec.groups[1].count, 0);
}

TEST(ClusterSpecTest, EverySectionKeepsItsSpelling) {
  // Every section, every group parameter, all four '_' aliases plus
  // keep_alive=, mixed case, and a group deployed empty.
  const auto spec = ClusterSpec::parse(
      "Big:2?Cores=8&memory_mb=1024&cost_per_hour=0.25&min_nodes=1&"
      "max_nodes=4, burst:0?cores=2; keep_alive=ttl?idle-s=30; "
      "Autoscaler=target-util?high=0.8&low=0.2; "
      "faults=crash-restart?mtbf-s=120&mttr-s=15&group=big,"
      "lost-completion?probability=0.05; "
      "resilience=timeout-s=2&max-attempts=3&hedge-p=0.95&"
      "breaker-failures=3; slo=P95<3; events=join@300:burst,drain@120:big/0");
  EXPECT_EQ(spec.to_string(),
            "big:2?cores=8&cost-per-hour=0.25&max-nodes=4&memory-mb=1024&"
            "min-nodes=1,burst:0?cores=2; keep-alive=ttl?idle-s=30; "
            "autoscaler=target-util?high=0.8&low=0.2; "
            "faults=crash-restart?group=big&mtbf-s=120&mttr-s=15,"
            "lost-completion?probability=0.05; "
            "resilience=breaker-failures=3&hedge-p=0.95&max-attempts=3&"
            "timeout-s=2; slo=p95<3; events=drain@120:big/0,join@300:burst");
  EXPECT_EQ(spec.to_compact_string(),
            "big:2?cores=8&cost-per-hour=0.25&max-nodes=4&memory-mb=1024&"
            "min-nodes=1+burst:0?cores=2|keep-alive=ttl?idle-s=30|"
            "autoscaler=target-util?high=0.8&low=0.2|"
            "faults=crash-restart?group=big&mtbf-s=120&mttr-s=15+"
            "lost-completion?probability=0.05|"
            "resilience=breaker-failures=3&hedge-p=0.95&max-attempts=3&"
            "timeout-s=2|slo=p95<3|events=drain@120:big/0+join@300:burst");
  EXPECT_TRUE(spec.canonical);
  EXPECT_EQ(spec.initial_nodes(), 2u);
  EXPECT_EQ(spec.initial_cores(10), 16);
  EXPECT_DOUBLE_EQ(spec.group_cost_per_hour(0), 0.25);
  EXPECT_DOUBLE_EQ(spec.group_cost_per_hour(1), 0.0);
  EXPECT_EQ(spec.group_min_nodes(0), 1u);
  EXPECT_EQ(spec.group_min_nodes(1), 0u) << "a group deployed empty";
  EXPECT_EQ(spec.group_max_nodes(0), 4u);
  EXPECT_EQ(spec.group_max_nodes(1), 1000000u);
  EXPECT_EQ(spec.group_index("BURST"), 1u);
  EXPECT_TRUE(spec.has_disruptive_events());
  EXPECT_TRUE(spec.has_disruptive_faults());
  EXPECT_TRUE(spec.needs_in_flight_tracking());
  node::NodeParams base;
  base.cores = 10;
  base.memory_limit_mb = 4096.0;
  const auto big = spec.node_params(0, base);
  EXPECT_EQ(big.cores, 8);
  EXPECT_DOUBLE_EQ(big.memory_limit_mb, 1024.0);
  EXPECT_EQ(big.keep_alive.to_string(), "ttl?idle-s=30");
  const auto burst = spec.node_params(1, base);
  EXPECT_EQ(burst.cores, 2);
  EXPECT_DOUBLE_EQ(burst.memory_limit_mb, 4096.0);
  EXPECT_EQ(spec.autoscaler.to_string(), "target-util?high=0.8&low=0.2");
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_EQ(spec.faults[0].text("group"), "big");
  EXPECT_EQ(spec.resilience.number("timeout-s", 0.0), 2.0);
  EXPECT_EQ(spec.resilience.count("max-attempts", 4), 3u);
  EXPECT_TRUE(spec.slo_set);
  EXPECT_EQ(spec.slo.metric, "p95");
  EXPECT_EQ(spec.slo.threshold_s, 3.0);
  ASSERT_EQ(spec.events.size(), 2u);
  EXPECT_EQ(spec.events[0], (LifecycleEvent{LifecycleKind::kDrain, 120.0,
                                            "big", 0}));
  EXPECT_EQ(spec.events[1], (LifecycleEvent{LifecycleKind::kJoin, 300.0,
                                            "burst", -1}));
  EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec);
  EXPECT_EQ(ClusterSpec::parse(spec.to_compact_string()), spec);
}

TEST(ClusterSpecTest, DisplayedGroupDefaultsAreTheAccessorFallbacks) {
  // cores and memory-mb inherit the experiment's base, so they display
  // no fixed default.
  std::map<std::string, std::string> shown;
  for (const auto& param : node_group_params()) {
    shown[param.name] = param.default_value;
  }
  ASSERT_EQ(shown.size(), 5u);
  EXPECT_EQ(shown.at("cores"), "");
  EXPECT_EQ(shown.at("memory-mb"), "");
  const auto spec = ClusterSpec::parse("node:2");
  EXPECT_EQ(util::fmt_g(spec.group_cost_per_hour(0)),
            shown.at("cost-per-hour"));
  EXPECT_EQ(std::to_string(spec.group_min_nodes(0)), shown.at("min-nodes"));
  EXPECT_EQ(std::to_string(spec.group_max_nodes(0)), shown.at("max-nodes"));
}

// A random valid deployment over every section, in a random spelling:
// either separator set, any section order, mixed-case keys, '_' aliases,
// spaces around a section's '='. Spec `i` uses entry i (mod size) of each
// registry, so a few hundred specs reach every registered keep-alive
// policy, autoscaler and fault.
std::string random_cluster_text(std::mt19937_64& rng, std::size_t i) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto spell = [&pick](std::string key, bool alias) {
    if (alias && pick(2) == 0) {
      std::replace(key.begin(), key.end(), '-', '_');
    }
    if (pick(3) == 0) {
      for (char& c : key) c = static_cast<char>(std::toupper(c));
    }
    return key;
  };
  // A section's key and its '=', sometimes spaced out.
  const auto section_key = [&](const std::string& key, bool alias) {
    return spell(key, alias) + (pick(4) == 0 ? " = " : "=");
  };
  const auto real = [&rng](double scale) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  static_cast<double>(rng() >> 11) * 0x1.0p-53 * scale);
    return std::string(buffer);
  };
  // A trailing digit keeps the value above zero ("0" reads as "01").
  const auto positive = [&real](double scale) { return real(scale) + "1"; };
  const bool compact = pick(2) == 0;
  const std::string list = compact ? "+" : ",";
  const auto join = [&list](const std::vector<std::string>& items) {
    std::string out;
    for (const auto& item : items) out += (out.empty() ? "" : list) + item;
    return out;
  };
  // A component with a random subset of its declared parameters, each at
  // its display default (`group` names a random deployment group).
  std::vector<std::string> group_names;
  const auto component = [&](const std::string& name, const auto& decls) {
    std::vector<std::string> params;
    for (const auto& p : decls) {
      if (pick(2) != 0) continue;
      if (p.name == "group") {
        params.push_back(spell(p.name, false) + "=" +
                         group_names[pick(group_names.size())]);
      } else if (!p.default_value.empty()) {
        params.push_back(spell(p.name, false) + "=" + p.default_value);
      }
    }
    std::string out = spell(name, false);
    for (std::size_t k = 0; k < params.size(); ++k) {
      out += (k == 0 ? "?" : "&") + params[k];
    }
    return out;
  };
  std::vector<std::string> sections;

  std::vector<int> counts;
  std::vector<std::string> groups;
  const std::size_t num_groups = 1 + pick(3);
  for (std::size_t g = 0; g < num_groups; ++g) {
    group_names.push_back("g" + std::to_string(g));
    const int count = static_cast<int>(g == 0 ? 1 + pick(3) : pick(4));
    counts.push_back(count);
    std::vector<std::string> params;
    if (pick(2) == 0) params.push_back(spell("cores", false) + "=" +
                                       std::to_string(1 + pick(32)));
    if (pick(2) == 0) params.push_back(spell("memory-mb", true) + "=" +
                                       positive(65536.0));
    if (pick(2) == 0) params.push_back(spell("cost-per-hour", true) + "=" +
                                       real(2.0));
    if (pick(2) == 0) {
      params.push_back(spell("min-nodes", true) + "=" +
                       std::to_string(pick(count + 1)));
    }
    if (pick(2) == 0) {
      params.push_back(spell("max-nodes", true) + "=" +
                       std::to_string(count + pick(3)));
    }
    std::string group = spell(group_names.back(), false);
    if (count != 1 || pick(2) == 0) group += ":" + std::to_string(count);
    for (std::size_t k = 0; k < params.size(); ++k) {
      group += (k == 0 ? "?" : "&") + params[k];
    }
    groups.push_back(group);
  }
  sections.push_back(join(groups));

  const auto keep_alive_names = container::KeepAliveSpec::registry().names();
  const std::string keep_alive =
      keep_alive_names[i % keep_alive_names.size()];
  sections.push_back(
      section_key("keep-alive", true) +
      component(keep_alive,
                container::KeepAliveSpec::probe(keep_alive).params));

  auto autoscaler_names = AutoscalerSpec::registry().names();
  autoscaler_names.push_back("none");
  const std::string autoscaler =
      autoscaler_names[i % autoscaler_names.size()];
  sections.push_back(
      section_key("autoscaler", false) +
      (autoscaler == "none"
           ? std::string("none")
           : component(autoscaler, AutoscalerSpec::probe(autoscaler).params)));

  const auto fault_names = FaultSpec::registry().names();
  std::vector<std::string> faults;
  bool drops_completions = false;
  for (std::size_t f = 0; f < fault_names.size(); ++f) {
    if (f != i % fault_names.size() && pick(3) != 0) continue;
    faults.push_back(
        component(fault_names[f], FaultSpec::probe(fault_names[f]).params));
    drops_completions =
        drops_completions || fault_drops_completions(fault_names[f]);
  }
  sections.push_back(section_key("faults", false) + join(faults));

  std::vector<std::string> knobs;
  const bool timeout = drops_completions || pick(2) == 0;
  const bool hedge = pick(2) == 0;
  if (timeout) knobs.push_back("timeout-s=" + positive(10.0));
  if (hedge) knobs.push_back("hedge-p=0." + std::to_string(1 + pick(98)));
  if ((timeout || hedge) && pick(2) == 0) {
    knobs.push_back("max-attempts=" + std::to_string(1 + pick(5)));
  }
  if (pick(2) == 0) knobs.push_back("retry-budget=" + real(1.0));
  if (pick(2) == 0) {
    knobs.push_back("hedge-min-samples=" + std::to_string(2 + pick(64)));
  }
  if (timeout && pick(2) == 0) {
    knobs.push_back("breaker-failures=" + std::to_string(pick(5)));
  }
  if (pick(2) == 0) knobs.push_back("breaker-cooldown-s=" + positive(60.0));
  if (pick(2) == 0) knobs.push_back("max-queue=" + std::to_string(pick(100)));
  std::string resilience;
  for (const auto& knob : knobs) {
    resilience += (resilience.empty() ? "" : "&") + spell(knob, false);
  }
  if (!resilience.empty() || pick(2) == 0) {
    sections.push_back(section_key("resilience", false) +
                       (resilience.empty() ? "none" : resilience));
  }

  if (pick(2) == 0) {
    const char* metrics[] = {"mean", "p50", "p75", "p95", "p99", "max"};
    sections.push_back(section_key("slo", false) +
                       spell(metrics[pick(6)], false) + "<" +
                       positive(100.0));
  }

  // Events in firing order: joins grow a group, and each node is drained
  // or failed at most once (fail-after-drain aside, every repeat is
  // rejected). Times are distinct, so the stable sort is unambiguous.
  std::vector<std::string> events;
  std::vector<int> nodes = counts;
  std::vector<std::vector<int>> used(num_groups);
  double time = 0.0;
  for (std::size_t e = pick(5); e > 0; --e) {
    time += 1.0 + pick(1000) / 7.0;
    char at[40];
    std::snprintf(at, sizeof(at), "%.17g", time);
    const std::size_t g = pick(num_groups);
    const int node = nodes[g] > 0 ? static_cast<int>(pick(nodes[g])) : -1;
    if (node < 0 || pick(3) == 0 ||
        std::count(used[g].begin(), used[g].end(), node) != 0) {
      events.push_back("join@" + std::string(at) + ":" + group_names[g]);
      ++nodes[g];
      continue;
    }
    used[g].push_back(node);
    events.push_back((pick(2) == 0 ? "drain@" : "fail@") + std::string(at) +
                     ":" + group_names[g] + "/" + std::to_string(node));
  }
  std::shuffle(events.begin(), events.end(), rng);
  if (!events.empty()) {
    sections.push_back(section_key("events", false) + join(events));
  }

  std::shuffle(sections.begin(), sections.end(), rng);
  std::string text;
  for (const auto& section : sections) {
    text += (text.empty() ? "" : (compact ? "|" : "; ")) + section;
  }
  return text;
}

TEST(ClusterSpecTest, GeneratedSpecsRoundTripThroughBothRenderings) {
  std::mt19937_64 rng(20220506);
  for (std::size_t i = 0; i < 300; ++i) {
    const std::string text = random_cluster_text(rng, i);
    const auto spec = ClusterSpec::parse(text);
    EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec) << text;
    EXPECT_EQ(ClusterSpec::parse(spec.to_compact_string()), spec) << text;
  }
}

TEST(ClusterSpecTest, SpaceBeforeSectionEqualsIsTolerated) {
  const auto expected = ClusterSpec::parse("node:2; keep-alive=ttl");
  EXPECT_EQ(ClusterSpec::parse("node:2; keep-alive = ttl"), expected);
  EXPECT_EQ(ClusterSpec::parse("keep-alive = ttl; node:2"), expected);
  EXPECT_EQ(ClusterSpec::parse("node:2 | Keep_Alive\t=ttl | slo = p99<2")
                .to_string(),
            "node:2; keep-alive=ttl; slo=p99<2");
}

}  // namespace
}  // namespace whisk::cluster
