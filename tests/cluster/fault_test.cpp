#include "cluster/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cluster/cluster.h"
#include "cluster/cluster_spec.h"
#include "workload/scenario_registry.h"

namespace whisk::cluster {
namespace {

TEST(FaultSpecTest, ParsesAndRoundTrips) {
  const auto spec = FaultSpec::parse("Crash-Restart?MTBF-S=120&mttr-s=15");
  EXPECT_EQ(spec.name, "crash-restart");
  EXPECT_EQ(spec.number("mtbf-s", 0.0), 120.0);
  EXPECT_EQ(spec.number("mttr-s", 0.0), 15.0);
  EXPECT_EQ(spec.to_string(), "crash-restart?mtbf-s=120&mttr-s=15");
  EXPECT_EQ(FaultSpec::parse(spec.to_string()), spec);
}

TEST(FaultSpecTest, AliasesResolveToCanonicalNames) {
  EXPECT_EQ(FaultSpec::parse("crash").name, "crash-restart");
  EXPECT_EQ(FaultSpec::parse("straggler?factor=2").name, "slow-node");
}

TEST(FaultSpecTest, NoneIsDisabled) {
  EXPECT_FALSE(FaultSpec{}.enabled());
  EXPECT_FALSE(FaultSpec::parse("none").enabled());
  EXPECT_TRUE(FaultSpec::parse("flap").enabled());
}

TEST(FaultSpecTest, UnknownNameAndKeyAbort) {
  EXPECT_DEATH((void)FaultSpec::parse("meteor-strike"), "meteor-strike");
  EXPECT_DEATH((void)FaultSpec::parse("flap?mtbf-s=3"), "mtbf-s");
  EXPECT_DEATH((void)FaultSpec::parse("crash-restart?mtbf-s=0"), "mtbf-s");
  EXPECT_DEATH((void)FaultSpec::parse("slow-node?factor=0.5"), "factor");
  EXPECT_DEATH((void)FaultSpec::parse("lost-completion?probability=1.5"),
               "probability");
}

TEST(FaultSpecTest, OutOfRangeValuesQuoteTheInput) {
  EXPECT_DEATH((void)FaultSpec::parse("crash-restart?mtbf-s=-1e-7"),
               "fault \"crash-restart\": mtbf-s must be > 0, got \"-1e-7\"");
  // A hand-built spec is checked on construction too.
  EXPECT_DEATH((void)make_fault(FaultSpec{"slow-node", {{"factor", "0.5"}}}),
               "factor must be >= 1, got \"0.5\"");
}

TEST(FaultSpecTest, ListParsingDropsNoneAndSplitsOnPlus) {
  EXPECT_TRUE(parse_fault_list("").empty());
  EXPECT_TRUE(parse_fault_list("none").empty());
  const auto two = parse_fault_list("crash-restart?mtbf-s=60+flap");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].name, "crash-restart");
  EXPECT_EQ(two[1].name, "flap");
  EXPECT_EQ(fault_list_to_string(two, ','),
            "crash-restart?mtbf-s=60,flap");
  EXPECT_EQ(fault_list_to_string({}, ','), "none");
}

TEST(FaultRegistryTest, ListsAllBuiltins) {
  const auto names = FaultRegistry::instance().names();
  const std::set<std::string> set(names.begin(), names.end());
  for (const char* name :
       {"crash-restart", "flap", "slow-node", "lost-completion"}) {
    EXPECT_TRUE(set.count(name) == 1) << name;
  }
}

TEST(FaultRegistryTest, DisruptiveAndDropFlags) {
  EXPECT_TRUE(fault_is_disruptive("crash-restart"));
  EXPECT_TRUE(fault_is_disruptive("flap"));
  EXPECT_FALSE(fault_is_disruptive("slow-node"));
  EXPECT_FALSE(fault_is_disruptive("lost-completion"));
  EXPECT_TRUE(fault_drops_completions("lost-completion"));
  EXPECT_FALSE(fault_drops_completions("crash-restart"));
}

TEST(FaultClusterSpecTest, FaultsSectionRoundTrips) {
  const auto spec = ClusterSpec::parse(
      "node:4; faults=crash-restart?mtbf-s=60,slow-node?factor=2");
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_TRUE(spec.has_disruptive_faults());
  EXPECT_TRUE(spec.needs_in_flight_tracking());
  EXPECT_EQ(ClusterSpec::parse(spec.to_string()), spec);
  EXPECT_EQ(ClusterSpec::parse(spec.to_compact_string()), spec);
}

TEST(FaultClusterSpecTest, ValidationCatchesBadSections) {
  // A fault scoped to a group that does not exist.
  EXPECT_DEATH(
      (void)ClusterSpec::parse("big:2; faults=crash-restart?group=tiny"),
      "tiny");
  // Losing completions without a retry timeout would hang the run.
  EXPECT_DEATH((void)ClusterSpec::parse("node:2; faults=lost-completion"),
               "timeout");
}

// End-to-end: every registered fault active at once, with the resilience
// layer recovering what the faults break. The run must terminate with
// exactly one terminal record per call.
TEST(FaultClusterTest, ChaosRunResolvesEveryCall) {
  const auto catalog = workload::sebs_catalog();
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse(
      "node:3; "
      "faults=crash-restart?mtbf-s=30&mttr-s=5,"
      "flap?period-s=25&down-s=3,slow-node?mtbf-s=20&factor=3,"
      "lost-completion?probability=0.05; "
      "resilience=timeout-s=10&max-attempts=5&retry-budget=1");
  Cluster cluster(engine, catalog, params, 7);
  cluster.warmup();

  workload::ScenarioContext ctx;
  ctx.catalog = &catalog;
  ctx.cores = 15;
  sim::Rng rng(7);
  const auto scenario =
      workload::make_scenario("uniform?intensity=30", ctx, rng);
  cluster.run_scenario(scenario);
  engine.run();

  const auto& col = cluster.collector();
  EXPECT_EQ(col.size(), scenario.size());
  EXPECT_EQ(col.ok_calls() + col.shed_calls() + col.dropped_calls(),
            scenario.size());
  EXPECT_GT(cluster.faults_injected(), 0u);
  // Every id resolves exactly once.
  std::set<workload::CallId> ids;
  for (const auto& rec : col.records()) {
    EXPECT_TRUE(ids.insert(rec.id).second) << "call " << rec.id
                                           << " resolved twice";
    EXPECT_GE(rec.attempts, 1);
  }
}

// The same chaos cell twice from the same seed is byte-identical state:
// fault draws ride on forked per-cell streams, not shared globals.
TEST(FaultClusterTest, ChaosRunIsDeterministic) {
  const auto catalog = workload::sebs_catalog();
  auto run_once = [&catalog]() {
    sim::Engine engine;
    ClusterParams params;
    params.node.cores = 5;
    params.deployment = ClusterSpec::parse(
        "node:2; faults=crash-restart?mtbf-s=25&mttr-s=5; "
        "resilience=timeout-s=10&max-attempts=4");
    Cluster cluster(engine, catalog, params, 3);
    cluster.warmup();
    workload::ScenarioContext ctx;
    ctx.catalog = &catalog;
    ctx.cores = 10;
    sim::Rng rng(3);
    const auto scenario =
        workload::make_scenario("uniform?intensity=30", ctx, rng);
    cluster.run_scenario(scenario);
    engine.run();
    std::vector<double> completions;
    for (const auto& rec : cluster.collector().records()) {
      completions.push_back(rec.completion);
    }
    return std::make_tuple(completions, cluster.faults_injected(),
                           cluster.resubmissions(),
                           cluster.unavailability_s());
  };
  EXPECT_EQ(run_once(), run_once());
}

// A disruptive process that never fires on its own — it arms the
// in-flight tracking machinery so a test can drive the FaultHost surface
// by hand.
class InertDisruptiveFault final : public FaultProcess {
 public:
  explicit InertDisruptiveFault(const FaultSpec&) {}
  [[nodiscard]] std::string_view name() const override {
    return "inert-disruptive";
  }
  [[nodiscard]] std::string help() const override {
    return "test-only: disruptive but never injects";
  }
  [[nodiscard]] bool disruptive() const override { return true; }
};

void register_inert_disruptive() {
  static const bool once = [] {
    FaultRegistry::instance().register_factory(
        "inert-disruptive", [](const FaultSpec& spec) {
          return std::make_unique<InertDisruptiveFault>(spec);
        });
    return true;
  }();
  (void)once;
}

// fault_fail / fault_restart drive the restart-in-place path: the slot
// keeps its index, gets a cold invoker, and node-hour metering excludes
// the downtime.
TEST(FaultClusterTest, FailAndRestartInPlace) {
  register_inert_disruptive();
  const auto catalog = workload::sebs_catalog();
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 2;
  // The inert process arms in-flight tracking without injecting anything,
  // so the test can exercise the FaultHost surface directly.
  params.deployment = ClusterSpec::parse("node:2; faults=inert-disruptive");
  Cluster cluster(engine, catalog, params, 1);
  cluster.warmup();

  ASSERT_TRUE(cluster.fault_node_active(0));
  EXPECT_TRUE(cluster.fault_fail(0));
  EXPECT_FALSE(cluster.fault_fail(0));  // already down
  EXPECT_TRUE(cluster.fault_node_failed(0));
  EXPECT_EQ(cluster.routable_nodes(), 1u);

  engine.schedule_in(10.0, [&] {
    EXPECT_TRUE(cluster.fault_restart(0));
    EXPECT_FALSE(cluster.fault_restart(0));  // already up
  });
  engine.run();
  EXPECT_TRUE(cluster.fault_node_active(0));
  EXPECT_EQ(cluster.routable_nodes(), 2u);
  EXPECT_DOUBLE_EQ(cluster.unavailability_s(), 10.0);
}

}  // namespace
}  // namespace whisk::cluster
