#include "cluster/autoscaler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.h"
#include "core/history.h"
#include "workload/scenario_registry.h"

namespace whisk::cluster {
namespace {

// ---------------------------------------------------------------------------
// AutoscalerSpec: grammar, round-trip, diagnostics.

TEST(AutoscalerSpec, DefaultIsNone) {
  const AutoscalerSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_EQ(spec.to_string(), "none");
  EXPECT_EQ(spec.normalized(), spec);
}

TEST(AutoscalerSpec, ParseToStringRoundTrips) {
  const char* texts[] = {
      "none",
      "target-util",
      "target-util?low=0.2&high=0.8",
      "queue-depth?high=6&cooldown-s=30",
      "predictive?window-s=20&target=0.6&tick-s=2",
  };
  for (const char* text : texts) {
    const auto spec = AutoscalerSpec::parse(text);
    EXPECT_EQ(AutoscalerSpec::parse(spec.to_string()), spec) << text;
    EXPECT_EQ(AutoscalerSpec::parse(spec.to_string()).to_string(),
              spec.to_string())
        << text;
  }
}

TEST(AutoscalerSpec, NamesAndKeysAreCaseInsensitive) {
  const auto spec = AutoscalerSpec::parse("Target-Util?LOW=0.2").normalized();
  EXPECT_EQ(spec.name, "target-util");
  EXPECT_TRUE(spec.has("low"));
  EXPECT_DOUBLE_EQ(spec.number("low", 0.0), 0.2);
}

TEST(AutoscalerSpec, AliasResolvesToCanonicalName) {
  EXPECT_EQ(AutoscalerSpec::parse("utilization").normalized().name,
            "target-util");
}

TEST(AutoscalerSpec, AnAliasedSpecReadsTheCanonicalDeclarations) {
  const AutoscalerSpec spec{"Utilization", {}};
  EXPECT_DOUBLE_EQ(spec.number("low"), 0.3);
  EXPECT_DOUBLE_EQ(spec.number("tick-s"), 5.0);
}

TEST(AutoscalerSpec, RegistryListsTheBuiltins) {
  const auto names = AutoscalerRegistry::instance().names();
  for (const char* want : {"predictive", "queue-depth", "target-util"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
}

TEST(AutoscalerSpecDeath, UnknownNameListsRegisteredOnes) {
  EXPECT_DEATH((void)AutoscalerSpec::parse("warp-scaler").normalized(),
               "unknown autoscaler \"warp-scaler\".*target-util");
}

TEST(AutoscalerSpecDeath, UnknownParameterListsValidKeys) {
  EXPECT_DEATH(
      (void)AutoscalerSpec::parse("target-util?warp=9").normalized(),
      "does not take parameter \"warp\".*tick-s.*low.*high");
}

TEST(AutoscalerSpecDeath, NoneTakesNoParameters) {
  EXPECT_DEATH((void)AutoscalerSpec::parse("none?low=1").normalized(), "");
}

TEST(AutoscalerSpecDeath, BadDriverValuesAbort) {
  EXPECT_DEATH(
      (void)AutoscalerSpec::parse("target-util?tick-s=0").normalized(),
      "tick-s");
  EXPECT_DEATH(
      (void)AutoscalerSpec::parse("target-util?cooldown-s=-1").normalized(),
      "cooldown-s");
}

TEST(AutoscalerSpecDeath, BadControllerValuesAbort) {
  EXPECT_DEATH(
      (void)AutoscalerSpec::parse("target-util?low=0.9&high=0.2").normalized(),
      "");
  EXPECT_DEATH(
      (void)AutoscalerSpec::parse("predictive?window-s=0").normalized(), "");
}

TEST(AutoscalerSpecDeath, OutOfRangeValuesQuoteTheInput) {
  EXPECT_DEATH((void)AutoscalerSpec::parse("target-util?cooldown-s=-1e-8"),
               "autoscaler \"target-util\": cooldown-s must be >= 0, got "
               "\"-1e-8\"");
  EXPECT_DEATH((void)AutoscalerSpec::parse("predictive?target=1.5"),
               "target must be in \\(0, 1\\], got \"1.5\"");
}

// ---------------------------------------------------------------------------
// Controller decisions on synthetic observations.

std::size_t decide(const char* spec_text, std::size_t active,
                   std::size_t queued, std::size_t executing,
                   int cores = 10) {
  const auto controller =
      make_autoscaler(AutoscalerSpec::parse(spec_text).normalized());
  GroupObservation group;
  group.active = active;
  group.cores_per_node = cores;
  group.queued = queued;
  group.executing = executing;
  ClusterObservation obs;
  obs.num_functions = 1;
  return controller->desired_nodes(group, obs);
}

TEST(TargetUtil, HoldsInsideTheBand) {
  // 5 of 10 cores busy on one node: utilization 0.5, inside [0.3, 0.85].
  EXPECT_EQ(decide("target-util", 1, 0, 5), 1u);
}

TEST(TargetUtil, GrowsOneStepAboveHigh) {
  // 12 calls on 10 cores: utilization 1.2 > 0.85.
  EXPECT_EQ(decide("target-util", 1, 2, 10), 2u);
  // One step per tick, no matter how far above the band.
  EXPECT_EQ(decide("target-util", 2, 40, 20), 3u);
}

TEST(TargetUtil, ShrinksOneStepBelowLow) {
  EXPECT_EQ(decide("target-util", 3, 0, 1), 2u);
  EXPECT_EQ(decide("target-util?low=0.05", 3, 0, 3), 3u)
      << "a tighter low bound keeps the fleet";
}

TEST(QueueDepth, ScalesOnBacklogPerNode) {
  // 10 queued on 2 nodes = 5 per node > default high 4.
  EXPECT_EQ(decide("queue-depth", 2, 10, 10), 3u);
  // No queue at all: 0 per node < default low 0.5.
  EXPECT_EQ(decide("queue-depth", 2, 0, 10), 1u);
  // 2 per node sits between the bounds.
  EXPECT_EQ(decide("queue-depth", 2, 4, 10), 2u);
}

TEST(Predictive, SizesFromTheArrivalHistory) {
  const auto controller =
      make_autoscaler(AutoscalerSpec::parse("predictive?window-s=10&target=1")
                          .normalized());
  EXPECT_DOUBLE_EQ(controller->history_window_s(), 10.0);

  core::RuntimeHistory history;
  history.register_arrival_window(10.0);
  // 40 arrivals over the last 10 s, each running 2.5 s: demand = 4/s * 2.5
  // = 10 cores, exactly one 10-core node at target 1.
  for (int i = 0; i < 40; ++i) {
    history.record_arrival(1, 90.0 + 0.25 * i);
    history.record_runtime(1, 2.5, 90.0 + 0.25 * i);
  }
  GroupObservation group;
  group.active = 3;
  group.cores_per_node = 10;
  ClusterObservation obs;
  obs.now = 100.0;
  obs.num_functions = 2;
  obs.history = &history;
  EXPECT_EQ(controller->desired_nodes(group, obs), 1u);

  // Halve the target utilization: twice the fleet.
  const auto cautious = make_autoscaler(
      AutoscalerSpec::parse("predictive?window-s=10&target=0.5").normalized());
  EXPECT_EQ(cautious->desired_nodes(group, obs), 2u);
}

TEST(Predictive, IdleHistoryShrinksOnlyWhenTheGroupIsIdle) {
  const auto controller = make_autoscaler(
      AutoscalerSpec::parse("predictive?window-s=10").normalized());
  core::RuntimeHistory history;
  history.register_arrival_window(10.0);
  GroupObservation group;
  group.active = 3;
  group.cores_per_node = 10;
  group.executing = 2;  // still working on the backlog
  ClusterObservation obs;
  obs.now = 100.0;
  obs.num_functions = 1;
  obs.history = &history;
  EXPECT_EQ(controller->desired_nodes(group, obs), 3u)
      << "no arrivals but live work: hold";
  group.executing = 0;
  EXPECT_EQ(controller->desired_nodes(group, obs), 2u)
      << "no arrivals, no work: release one node";
}

// ---------------------------------------------------------------------------
// The Cluster driver: closed-loop scaling end to end.

class AutoscalerClusterTest : public ::testing::Test {
 protected:
  AutoscalerClusterTest() : catalog_(workload::sebs_catalog()) {}

  workload::Scenario burst(const std::string& spec, std::uint64_t seed,
                           int cores = 5) {
    workload::ScenarioContext ctx;
    ctx.catalog = &catalog_;
    ctx.cores = cores;
    sim::Rng rng(seed);
    return workload::make_scenario(spec, ctx, rng);
  }

  workload::FunctionCatalog catalog_;
};

TEST_F(AutoscalerClusterTest, ScalesUpUnderLoadAndEveryCallCompletes) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse(
      "node:1?max-nodes=4; "
      "autoscaler=target-util?high=0.7&tick-s=1&cooldown-s=1");
  Cluster cluster(engine, catalog_, params, 1);
  EXPECT_TRUE(cluster.autoscaling());
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=300&window=20", 1);
  cluster.run_scenario(scenario);
  engine.run();
  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_GT(cluster.scale_ups(), 0u) << "the overload must trigger growth";
  EXPECT_GT(cluster.num_nodes(), 1u);
  EXPECT_LE(cluster.num_nodes(), 4u) << "max-nodes bounds the fleet";
  std::size_t on_joined = 0;
  for (const auto& rec : cluster.collector().records()) {
    if (rec.node > 0) ++on_joined;
  }
  EXPECT_GT(on_joined, 0u) << "scaled-up nodes take traffic";
}

TEST_F(AutoscalerClusterTest, ScalesDownWhenIdleAndMinNodesHolds) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  // A short burst followed by a long quiet tail: the band controller must
  // drain the extra nodes but never go below min-nodes=2.
  params.deployment = ClusterSpec::parse(
      "node:4?min-nodes=2; "
      "autoscaler=target-util?low=0.4&tick-s=1&cooldown-s=1");
  Cluster cluster(engine, catalog_, params, 2);
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=40&window=4", 2);
  cluster.run_scenario(scenario);
  engine.run();
  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_GT(cluster.scale_downs(), 0u);
  EXPECT_EQ(cluster.routable_nodes(), 2u)
      << "min-nodes floors the scale-down";
  // The drained members finished their backlog and retired.
  std::size_t drained = 0;
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.node_state(n) == NodeState::kDrained) ++drained;
  }
  EXPECT_EQ(drained, cluster.scale_downs());
}

TEST_F(AutoscalerClusterTest, CooldownRateLimitsScaling) {
  auto scale_events = [&](double cooldown_s) {
    sim::Engine engine;
    ClusterParams params;
    params.node.cores = 5;
    params.deployment = ClusterSpec::parse(
        "node:1?max-nodes=8; autoscaler=target-util?high=0.6&tick-s=0.5"
        "&cooldown-s=" +
        std::to_string(cooldown_s));
    Cluster cluster(engine, catalog_, params, 3);
    cluster.warmup();
    cluster.run_scenario(burst("fixed-total?total=300&window=20", 3));
    engine.run();
    EXPECT_EQ(cluster.collector().size(), 300u);
    return cluster.scale_ups() + cluster.scale_downs();
  };
  const std::size_t fast = scale_events(0.5);
  const std::size_t slow = scale_events(15.0);
  EXPECT_GT(fast, slow)
      << "a 30x longer cooldown must allow fewer scaling actions";
  EXPECT_GT(slow, 0u);
}

TEST_F(AutoscalerClusterTest, CostMeteringProRatesJoinsAndDrains) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse(
      "node:1?cost-per-hour=3.6&max-nodes=4; "
      "autoscaler=target-util?high=0.6&tick-s=1&cooldown-s=1");
  Cluster cluster(engine, catalog_, params, 4);
  cluster.warmup();
  cluster.run_scenario(burst("fixed-total?total=200&window=15", 4));
  engine.run();
  ASSERT_GT(cluster.scale_ups(), 0u);
  const double horizon = engine.now();
  // Joined nodes are metered from their join, not from t=0: with at least
  // one join, total node-seconds sits strictly between one node's lifetime
  // and "every node for the whole run".
  const double seconds = cluster.node_seconds(0);
  EXPECT_GT(seconds, horizon);
  EXPECT_LT(seconds,
            horizon * static_cast<double>(cluster.num_nodes()) - 1e-9);
  EXPECT_DOUBLE_EQ(cluster.node_hours(), seconds / 3600.0);
  // cost-per-hour=3.6 prices a node-second at $0.001.
  EXPECT_NEAR(cluster.cost_usd(), seconds * 0.001, 1e-9);
}

TEST_F(AutoscalerClusterTest, StaticFleetMetersEveryNodeForTheFullRun) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse("node:3?cost-per-hour=1");
  Cluster cluster(engine, catalog_, params, 5);
  cluster.warmup();
  cluster.run_scenario(burst("fixed-total?total=60", 5));
  engine.run();
  EXPECT_FALSE(cluster.autoscaling());
  EXPECT_NEAR(cluster.node_seconds(0), 3.0 * engine.now(), 1e-9);
  EXPECT_NEAR(cluster.cost_usd(), 3.0 * engine.now() / 3600.0, 1e-9);
}

TEST_F(AutoscalerClusterTest, PredictiveControllerDrivesTheFleet) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse(
      "node:1?max-nodes=6; "
      "autoscaler=predictive?window-s=5&target=0.5&tick-s=1&cooldown-s=1");
  Cluster cluster(engine, catalog_, params, 6);
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=300&window=20", 6);
  cluster.run_scenario(scenario);
  engine.run();
  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_GT(cluster.scale_ups(), 0u)
      << "the demand estimate must outgrow one node";
}

TEST(AutoscalerClusterBounds, ScaleToZeroIsImpossibleByDefault) {
  // The default min-nodes floor is 1, so even an aggressive shrink
  // controller cannot empty the fleet (which would abort the balancer).
  const auto spec = ClusterSpec::parse(
      "node:2; autoscaler=target-util?low=0.99&high=1000&tick-s=1"
      "&cooldown-s=1");
  EXPECT_EQ(spec.group_min_nodes(0), 1u);
}

}  // namespace
}  // namespace whisk::cluster
