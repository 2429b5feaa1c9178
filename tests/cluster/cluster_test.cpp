#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "experiments/runner.h"
#include "metrics/csv.h"
#include "workload/scenario_registry.h"

namespace whisk::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : catalog_(workload::sebs_catalog()) {}

  // A scenario from the registry surface, sized for `cores` on one node.
  workload::Scenario burst(const std::string& spec, std::uint64_t seed,
                           int cores = 10) {
    workload::ScenarioContext ctx;
    ctx.catalog = &catalog_;
    ctx.cores = cores;
    sim::Rng rng(seed);
    return workload::make_scenario(spec, ctx, rng);
  }

  workload::FunctionCatalog catalog_;
};

TEST_F(ClusterTest, CompletesEveryCall) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  Cluster cluster(engine, catalog_, params, 1);
  cluster.warmup();
  const auto scenario = burst("uniform?intensity=30", 1, /*cores=*/5);
  cluster.run_scenario(scenario);
  engine.run();
  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_EQ(cluster.total_stats().calls_completed, scenario.size());
}

TEST_F(ClusterTest, ResponseIncludesNetworkPath) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 2;
  Cluster cluster(engine, catalog_, params, 1);
  cluster.warmup();
  workload::Scenario s;
  s.calls.push_back(
      workload::CallRequest{0, *catalog_.find("graph-bfs"), 0.0});
  cluster.run_scenario(s);
  engine.run();
  const auto rec = cluster.collector().record(0);
  // r'(i) = release + client->controller + controller->invoker.
  EXPECT_NEAR(rec.received - rec.release,
              kClientToControllerS + kControllerToInvokerS, 1e-9);
  // c(i) >= exec_end + return path.
  EXPECT_GE(rec.completion - rec.exec_end, kResponseReturnS - 1e-9);
}

TEST_F(ClusterTest, IdleResponseMatchesTableOneOverhead) {
  // On an idle warmed node the end-to-end overhead on top of the service
  // time is ~10 ms (the paper's Table I note).
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 4;
  Cluster cluster(engine, catalog_, params, 3);
  cluster.warmup();
  workload::Scenario s;
  s.calls.push_back(
      workload::CallRequest{0, *catalog_.find("graph-bfs"), 0.0});
  cluster.run_scenario(s);
  engine.run();
  const auto rec = cluster.collector().record(0);
  const double overhead = rec.response() - rec.service;
  EXPECT_GT(overhead, 0.005);
  EXPECT_LT(overhead, 0.05);
}

TEST_F(ClusterTest, MultiNodeSpreadsCalls) {
  sim::Engine engine;
  ClusterParams params;
  params.deployment = ClusterSpec::homogeneous(4);
  params.node.cores = 5;
  params.balancer = "round-robin";
  Cluster cluster(engine, catalog_, params, 2);
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=220", 2);
  cluster.run_scenario(scenario);
  engine.run();
  std::set<int> nodes;
  for (const auto& rec : cluster.collector().records()) {
    nodes.insert(rec.node);
  }
  EXPECT_EQ(nodes.size(), 4u) << "round-robin uses every worker";
  EXPECT_EQ(cluster.num_nodes(), 4u);
}

TEST_F(ClusterTest, RoundRobinBalancesEvenly) {
  sim::Engine engine;
  ClusterParams params;
  params.deployment = ClusterSpec::homogeneous(2);
  params.node.cores = 5;
  Cluster cluster(engine, catalog_, params, 2);
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=200", 3);
  cluster.run_scenario(scenario);
  engine.run();
  int node0 = 0;
  for (const auto& rec : cluster.collector().records()) {
    if (rec.node == 0) ++node0;
  }
  EXPECT_EQ(node0, 100);
}

TEST_F(ClusterTest, BaselineApproachUsesBaselineInvoker) {
  sim::Engine engine;
  ClusterParams params;
  params.invoker = "baseline";
  Cluster cluster(engine, catalog_, params, 1);
  EXPECT_EQ(cluster.invoker(0).approach(), "baseline");
}

TEST_F(ClusterTest, OurApproachUsesOurInvoker) {
  sim::Engine engine;
  ClusterParams params;
  params.invoker = "ours";
  params.policy = "sept";
  Cluster cluster(engine, catalog_, params, 1);
  EXPECT_EQ(cluster.invoker(0).approach(), "our");
}

TEST_F(ClusterTest, DeterministicAcrossRuns) {
  auto run_once = [&](std::uint64_t seed) {
    sim::Engine engine;
    ClusterParams params;
    params.node.cores = 5;
    Cluster cluster(engine, catalog_, params, seed);
    cluster.warmup();
    const auto scenario = burst("uniform?intensity=30", seed, /*cores=*/5);
    cluster.run_scenario(scenario);
    engine.run();
    double sum = 0.0;
    for (double r : cluster.collector().response_times()) sum += r;
    return sum;
  };
  EXPECT_DOUBLE_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST_F(ClusterTest, TotalStatsAggregateAcrossNodes) {
  sim::Engine engine;
  ClusterParams params;
  params.deployment = ClusterSpec::homogeneous(3);
  params.node.cores = 5;
  Cluster cluster(engine, catalog_, params, 4);
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=330", 4);
  cluster.run_scenario(scenario);
  engine.run();
  const auto stats = cluster.total_stats();
  EXPECT_EQ(stats.calls_received, 330u);
  EXPECT_EQ(stats.calls_completed, 330u);
  EXPECT_EQ(stats.warm_starts + stats.prewarm_starts + stats.cold_starts,
            330u);
}

TEST_F(ClusterTest, LegacySugarEqualsExplicitOneGroupSpec) {
  // The byte-pin behind the refactor: .nodes(n) is sugar for a one-group
  // ClusterSpec, so both spellings must produce the identical record CSV.
  auto run_csv = [&](bool explicit_cluster) {
    auto spec = experiments::ExperimentSpec()
                    .scheduler("ours/sept")
                    .scenario("fixed-total?total=120")
                    .cores(5)
                    .seed(3);
    if (explicit_cluster) {
      spec.cluster("node:2");
    } else {
      spec.nodes(2);
    }
    const auto result = experiments::run_experiment(spec, catalog_);
    return metrics::to_csv(result.records, catalog_);
  };
  EXPECT_EQ(run_csv(false), run_csv(true));
}

TEST_F(ClusterTest, HeterogeneousFleetRoutesByCapacity) {
  sim::Engine engine;
  ClusterParams params;
  params.balancer = "weighted-least-loaded";
  params.node.cores = 4;
  params.deployment = ClusterSpec::parse("big:1?cores=16,small:1?cores=4");
  Cluster cluster(engine, catalog_, params, 5);
  cluster.warmup();
  // A 10 s window keeps a standing backlog, so the capacity weighting (not
  // the idle tie-break) decides most picks.
  const auto scenario = burst("fixed-total?total=400&window=10", 5);
  cluster.run_scenario(scenario);
  engine.run();
  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_EQ(cluster.invoker(0).params().cores, 16);
  EXPECT_EQ(cluster.invoker(1).params().cores, 4);
  EXPECT_EQ(cluster.node_group(0), 0u);
  EXPECT_EQ(cluster.node_group(1), 1u);
  std::map<int, int> calls_per_node;
  for (const auto& rec : cluster.collector().records()) {
    ++calls_per_node[rec.node];
  }
  EXPECT_GT(calls_per_node[0], 2 * calls_per_node[1])
      << "the 16-core box should absorb most of the load";
  const auto groups = cluster.group_stats();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].name, "big");
  EXPECT_EQ(static_cast<int>(groups[0].stats.calls_completed),
            calls_per_node[0]);
}

TEST_F(ClusterTest, DrainedNodeStopsReceivingButFinishesItsBacklog) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment =
      ClusterSpec::parse("node:2; events=drain@5:node/1");
  Cluster cluster(engine, catalog_, params, 2);
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=200", 2);
  cluster.run_scenario(scenario);
  engine.run();
  EXPECT_EQ(cluster.collector().size(), scenario.size())
      << "every call completes, including those queued on the drained node";
  // No call released after the drain (plus the network hop) may land on
  // node 1.
  for (const auto& rec : cluster.collector().records()) {
    if (rec.release > 5.0) {
      EXPECT_EQ(rec.node, 0) << "call " << rec.id
                             << " routed to a draining node";
    }
  }
  EXPECT_EQ(cluster.node_state(1), NodeState::kDrained);
  EXPECT_EQ(cluster.routable_nodes(), 1u);
  EXPECT_EQ(cluster.resubmissions(), 0u);
}

TEST_F(ClusterTest, JoinedNodeStartsColdAndReceivesCalls) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse("node:1; events=join@10:node");
  Cluster cluster(engine, catalog_, params, 3);
  cluster.warmup();
  const auto scenario = burst("fixed-total?total=200", 3);
  cluster.run_scenario(scenario);
  engine.run();
  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_EQ(cluster.num_nodes(), 2u);
  EXPECT_EQ(cluster.routable_nodes(), 2u);
  std::size_t on_joined = 0;
  for (const auto& rec : cluster.collector().records()) {
    if (rec.node == 1) {
      ++on_joined;
      EXPECT_GT(rec.received, 10.0) << "no call before the join";
    }
  }
  EXPECT_GT(on_joined, 0u) << "the joined node takes traffic";
  EXPECT_GT(cluster.invoker(1).stats().cold_starts, 0u)
      << "a joined node is cold: its first calls create containers";
  EXPECT_EQ(cluster.invoker(0).stats().cold_starts, 0u)
      << "the warmed node never cold-starts in this load";
}

TEST_F(ClusterTest, FailedNodeCallsAreResubmittedAndAccounted) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  params.deployment = ClusterSpec::parse("node:2; events=fail@5:node/1");
  Cluster cluster(engine, catalog_, params, 4);
  cluster.warmup();
  // 20 calls/s guarantees node 1 holds in-flight work when it dies at t=5.
  const auto scenario = burst("fixed-total?total=200&window=10", 4);
  cluster.run_scenario(scenario);
  engine.run();
  // Every call still completes exactly once; the interrupted ones needed a
  // second submission.
  EXPECT_EQ(cluster.collector().size(), scenario.size());
  EXPECT_GT(cluster.resubmissions(), 0u)
      << "a mid-burst failure must interrupt something";
  EXPECT_EQ(cluster.node_state(1), NodeState::kFailed);
  EXPECT_EQ(cluster.routable_nodes(), 1u);
  const auto& col = cluster.collector();
  EXPECT_EQ(col.resubmissions(), cluster.resubmissions())
      << "the collector accounts every re-submission";
  EXPECT_GT(col.resubmitted_calls(), 0u);
  std::size_t attempts_above_one = 0;
  for (const auto& rec : col.records()) {
    if (rec.attempts > 1) {
      ++attempts_above_one;
      EXPECT_EQ(rec.node, 0) << "the retry completed on the survivor";
    }
  }
  EXPECT_EQ(attempts_above_one, col.resubmitted_calls());
  const auto stats = cluster.total_stats();
  EXPECT_EQ(stats.calls_lost, cluster.invoker(1).stats().calls_lost);
  EXPECT_EQ(stats.calls_completed, scenario.size());
}

// No resilience section: a call interrupted by crash after crash is
// re-submitted until its kMaxResubmitAttempts-th submission, then recorded
// as dropped with exactly that many attempts.
TEST_F(ClusterTest, FailureResubmissionDropsAtTheFixedBound) {
  const auto result = experiments::run_experiment(
      experiments::ExperimentSpec()
          .scheduler("ours/fifo")
          .scenario("uniform?intensity=60")
          .cluster("node:1; faults=crash-restart?mtbf-s=5&mttr-s=1")
          .cores(10)
          .seed(0),
      catalog_);
  ASSERT_EQ(result.calls, 660u);
  EXPECT_EQ(result.dropped_calls, 467u);
  ASSERT_EQ(result.records.size(), result.calls);
  std::size_t dropped = 0;
  std::size_t extra_submissions = 0;
  for (const auto& rec : result.records) {
    EXPECT_LE(rec.attempts, kMaxResubmitAttempts);
    extra_submissions += static_cast<std::size_t>(rec.attempts - 1);
    if (rec.disposition == metrics::Disposition::kDropped) {
      ++dropped;
      EXPECT_EQ(rec.attempts, kMaxResubmitAttempts);
    }
  }
  EXPECT_EQ(dropped, result.dropped_calls);
  EXPECT_EQ(extra_submissions, result.resubmissions);
}

TEST_F(ClusterTest, DaemonQueueWaitSurfacesInStats) {
  sim::Engine engine;
  ClusterParams params;
  params.node.cores = 5;
  Cluster cluster(engine, catalog_, params, 1);
  cluster.warmup();
  const auto scenario = burst("uniform?intensity=30", 1, /*cores=*/5);
  cluster.run_scenario(scenario);
  engine.run();
  const auto stats = cluster.total_stats();
  EXPECT_GT(stats.daemon_busy_seconds, 0.0);
  EXPECT_GT(stats.daemon_queue_wait_seconds, 0.0)
      << "a 30-intensity burst contends on the daemon";
  EXPECT_GT(stats.daemon_max_queue_wait_seconds, 0.0);
  EXPECT_GE(stats.daemon_queue_wait_seconds,
            stats.daemon_max_queue_wait_seconds);
}

TEST(ClusterDeath, AllNodesGoneAborts) {
  const auto catalog = workload::sebs_catalog();
  sim::Engine engine;
  ClusterParams params;
  params.deployment = ClusterSpec::parse("node:1; events=drain@0.5:node/0");
  Cluster cluster(engine, catalog, params, 1);
  cluster.warmup();
  workload::Scenario s;
  s.calls.push_back(workload::CallRequest{0, 0, 1.0});
  cluster.run_scenario(s);
  EXPECT_DEATH(engine.run(), "no routable nodes");
}

TEST(ClusterDeath, CallIdOutsideTheScheduledRangeAborts) {
  // Call ids index the per-call ledger: one call scheduled means id 0.
  const auto catalog = workload::sebs_catalog();
  sim::Engine engine;
  Cluster cluster(engine, catalog, ClusterParams{}, 1);
  cluster.warmup();
  workload::Scenario s;
  s.calls.push_back(workload::CallRequest{1, 0, 1.0});
  cluster.run_scenario(s);
  EXPECT_DEATH(engine.run(), "call id outside");
}

}  // namespace
}  // namespace whisk::cluster
