#include "cluster/resilience.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cluster/cluster.h"
#include "cluster/cluster_spec.h"
#include "cluster/fault.h"
#include "workload/scenario_registry.h"

namespace whisk::cluster {
namespace {

TEST(ResilienceSpecTest, ParsesAndRoundTrips) {
  const auto spec =
      ResilienceSpec::parse("Timeout-S=2&MAX-ATTEMPTS=3&hedge-p=0.95");
  EXPECT_TRUE(spec.enabled());
  EXPECT_EQ(spec.number("timeout-s", 0.0), 2.0);
  EXPECT_EQ(spec.count("max-attempts", 4), 3u);
  EXPECT_EQ(spec.to_string(), "hedge-p=0.95&max-attempts=3&timeout-s=2");
  EXPECT_EQ(ResilienceSpec::parse(spec.to_string()), spec);
}

TEST(ResilienceSpecTest, NoneAndEmptyAreDisabled) {
  EXPECT_FALSE(ResilienceSpec{}.enabled());
  EXPECT_FALSE(ResilienceSpec::parse("").enabled());
  EXPECT_FALSE(ResilienceSpec::parse("none").enabled());
}

TEST(ResilienceSpecTest, ValidationNamesTheKnob) {
  EXPECT_DEATH((void)ResilienceSpec::parse("warp-drive=1"),
               "warp-drive.*valid parameters");
  EXPECT_DEATH((void)ResilienceSpec::parse("timeout-s=-1"),
               "timeout-s must be >= 0");
  EXPECT_DEATH((void)ResilienceSpec::parse("max-attempts=0"),
               "max-attempts must be >= 1");
  EXPECT_DEATH((void)ResilienceSpec::parse("max-queue=40&max-attempts=1"),
               "max-attempts needs timeout-s > 0 or hedge-p > 0");
  EXPECT_DEATH((void)ResilienceSpec::parse("hedge-p=1"), "hedge-p");
  EXPECT_DEATH((void)ResilienceSpec::parse("breaker-failures=3"),
               "needs timeout-s");
  EXPECT_DEATH((void)ResilienceSpec::parse("timeout-s=banana"),
               "not a finite number");
}

TEST(ResilienceSpecTest, OutOfRangeValuesQuoteTheInput) {
  EXPECT_DEATH((void)ResilienceSpec::parse("timeout-s=-1e-7"),
               "resilience: timeout-s must be >= 0, got \"-1e-7\"");
  EXPECT_DEATH((void)ResilienceSpec::parse("hedge-p=1"),
               "hedge-p must be in \\[0, 1\\), got \"1\"");
}

TEST(ResilienceSpecTest, EveryKnobIsDeclared) {
  // The catalog surface and the validator must agree on the knob set.
  std::set<std::string> declared;
  for (const auto& param : resilience_params()) declared.insert(param.name);
  for (const char* knob :
       {"timeout-s", "max-attempts", "retry-budget", "hedge-p",
        "hedge-min-samples", "breaker-failures", "breaker-cooldown-s",
        "max-queue"}) {
    EXPECT_TRUE(declared.count(knob) == 1) << knob;
  }
}

TEST(ResilienceSpecTest, DisplayedDefaultsAreTheTypedDefaults) {
  // Every knob spelled at its displayed default reads as an empty spec,
  // and every knob moved off it reaches the typed config.
  EXPECT_EQ(ResilienceSpec{}.config(), ResilienceConfig{});
  ResilienceSpec spelled;
  for (const auto& param : resilience_params()) {
    spelled.params[param.name] = param.default_value;
  }
  EXPECT_EQ(spelled.config(), ResilienceConfig{});
  for (const auto& param : resilience_params()) {
    ResilienceSpec moved;
    moved.params[param.name] = "7";
    EXPECT_NE(moved.config(), ResilienceConfig{}) << param.name;
  }
}

class ResilienceClusterTest : public ::testing::Test {
 protected:
  ResilienceClusterTest() : catalog_(workload::sebs_catalog()) {}

  workload::Scenario burst(const std::string& spec, std::uint64_t seed,
                           int cores) {
    workload::ScenarioContext ctx;
    ctx.catalog = &catalog_;
    ctx.cores = cores;
    sim::Rng rng(seed);
    return workload::make_scenario(spec, ctx, rng);
  }

  workload::FunctionCatalog catalog_;
};

// A 50x straggler next to a healthy node: hedges fire once the latency
// ring has samples, and the healthy duplicate wins.
TEST_F(ResilienceClusterTest, HedgeDuplicateWinsAgainstStraggler) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment =
      ClusterSpec::parse("node:2; resilience=hedge-p=0.5&hedge-min-samples=2");
  Cluster cluster(engine, catalog_, params, 2);
  cluster.warmup();
  cluster.fault_set_speed(0, 50.0);

  const auto scenario = burst("uniform?intensity=30", 2, /*cores=*/10);
  cluster.run_scenario(scenario);
  engine.run();

  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_EQ(cluster.collector().ok_calls(), scenario.size());
  EXPECT_GT(cluster.hedges(), 0u);
  EXPECT_GT(cluster.hedges_won(), 0u);
  EXPECT_LE(cluster.hedges_won(), cluster.hedges());
  // Hedging alone never sheds or drops.
  EXPECT_EQ(cluster.collector().shed_calls(), 0u);
  EXPECT_EQ(cluster.collector().dropped_calls(), 0u);
}

// A test-local fault process that swallows every completion coming from
// node 0 — a deterministic failure signal for the breaker tests, and a
// demonstration of the open registry.
class EatNodeZero final : public FaultProcess {
 public:
  explicit EatNodeZero(const FaultSpec&) {}

  [[nodiscard]] std::string_view name() const override {
    return "eat-node-zero";
  }
  [[nodiscard]] std::string help() const override {
    return "test-only: swallow every completion from node 0";
  }
  [[nodiscard]] bool drops_completions() const override { return true; }
  void start(FaultHost& host, sim::Rng) override { host_ = &host; }
  [[nodiscard]] bool drop_completion(
      const metrics::CallRecord& record) override {
    if (record.node != 0) return false;
    host_->fault_note_injected();
    return true;
  }

 private:
  FaultHost* host_ = nullptr;
};

void register_eat_node_zero() {
  static const bool once = [] {
    FaultRegistry::instance().register_factory(
        "eat-node-zero", [](const FaultSpec& spec) {
          return std::make_unique<EatNodeZero>(spec);
        });
    return true;
  }();
  (void)once;
}

// Node 0 answers nothing: consecutive timeouts open its breaker, retries
// re-drive the stranded calls through node 1, and half-open probes that
// time out re-open the breaker. Node 1 has enough cores to absorb the
// whole workload, so every call still completes.
TEST_F(ResilienceClusterTest, BreakerOpensOnConsecutiveTimeouts) {
  register_eat_node_zero();
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 10;
  params.deployment = ClusterSpec::parse(
      "node:2; faults=eat-node-zero; "
      "resilience=timeout-s=30&max-attempts=6&retry-budget=2&"
      "breaker-failures=2&breaker-cooldown-s=10");
  Cluster cluster(engine, catalog_, params, 4);
  cluster.warmup();

  const auto scenario = burst("uniform?intensity=30", 4, /*cores=*/10);
  cluster.run_scenario(scenario);
  engine.run();

  const auto& col = cluster.collector();
  EXPECT_EQ(col.size(), scenario.size());
  EXPECT_EQ(col.ok_calls() + col.dropped_calls(), scenario.size());
  // The breaker keeps the black-hole node from eating more than a sliver.
  EXPECT_GE(col.ok_calls(), scenario.size() * 9 / 10);
  EXPECT_GE(cluster.timeouts(), 2u);
  EXPECT_GE(cluster.retries(), 1u);
  EXPECT_GE(cluster.breaker_opens(), 1u);
  EXPECT_GE(cluster.faults_injected(), 1u);
  // Node 0 completed work whose answers were all lost; node 1 served every
  // acknowledged response.
  for (const auto& rec : col.records()) {
    if (rec.disposition == metrics::Disposition::kOk) {
      EXPECT_EQ(rec.node, 1);
    }
  }
}

// Saturate one small node with max-queue set: overflow calls are refused
// at admission with the shed disposition, and every call still resolves
// exactly once.
TEST_F(ResilienceClusterTest, AdmissionShedsWhenEveryNodeIsSaturated) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 2;
  params.deployment = ClusterSpec::parse("node:1; resilience=max-queue=4");
  Cluster cluster(engine, catalog_, params, 3);
  cluster.warmup();

  const auto scenario = burst("uniform?intensity=60", 3, /*cores=*/30);
  cluster.run_scenario(scenario);
  engine.run();

  const auto& col = cluster.collector();
  EXPECT_EQ(col.size(), scenario.size());
  EXPECT_GT(col.shed_calls(), 0u);
  EXPECT_EQ(col.ok_calls() + col.shed_calls(), scenario.size());
  for (const auto& rec : col.records()) {
    if (rec.disposition == metrics::Disposition::kShed) {
      EXPECT_EQ(rec.node, -1);
      EXPECT_GE(rec.attempts, 1);
    }
  }
}

// Failures under admission control: re-submitted calls were admitted
// once, so they are never shed, and every re-submission lands in some
// record's attempts.
TEST_F(ResilienceClusterTest, AdmissionNeverShedsARoutedCall) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse(
      "node:2; resilience=max-queue=6; "
      "faults=crash-restart?mtbf-s=10&mttr-s=2");
  Cluster cluster(engine, catalog_, params, 7);
  cluster.warmup();

  const auto scenario = burst("uniform?intensity=60", 7, /*cores=*/10);
  cluster.run_scenario(scenario);
  engine.run();

  const auto& col = cluster.collector();
  EXPECT_EQ(col.size(), scenario.size());
  EXPECT_GT(col.shed_calls(), 0u);
  EXPECT_GT(cluster.resubmissions(), 0u);
  EXPECT_EQ(col.resubmissions(), cluster.resubmissions())
      << "a shed record would lose its call's earlier attempts";
  for (const auto& rec : col.records()) {
    if (rec.disposition == metrics::Disposition::kShed) {
      EXPECT_EQ(rec.attempts, 1);
    }
  }
}

// Every completion lost and only two attempts allowed: the retry bound
// turns each call into a dropped record instead of a hung run.
TEST_F(ResilienceClusterTest, AttemptBoundDropsInsteadOfHanging) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse(
      "node:2; faults=lost-completion?probability=1; "
      "resilience=timeout-s=5&max-attempts=2&retry-budget=1");
  Cluster cluster(engine, catalog_, params, 5);
  cluster.warmup();

  const auto scenario = burst("uniform?intensity=30", 5, /*cores=*/10);
  cluster.run_scenario(scenario);
  engine.run();

  const auto& col = cluster.collector();
  EXPECT_EQ(col.size(), scenario.size());
  EXPECT_EQ(col.dropped_calls(), scenario.size());
  EXPECT_EQ(col.ok_calls(), 0u);
  for (const auto& rec : col.records()) {
    EXPECT_EQ(rec.disposition, metrics::Disposition::kDropped);
    EXPECT_EQ(rec.attempts, 2);
  }
}

}  // namespace
}  // namespace whisk::cluster
