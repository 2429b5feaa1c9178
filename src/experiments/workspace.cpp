#include "experiments/workspace.h"

#include <cstdint>
#include <utility>

#include "cluster/cluster.h"
#include "util/check.h"
#include "workload/scenario_registry.h"

namespace whisk::experiments {

const workload::Scenario& CellWorkspace::scenario_for(
    const ExperimentSpec& spec, const workload::FunctionCatalog& cat) {
  // Every input of make_scenario: the spec string (name + parameters), the
  // seed that derives the generator's rng stream, and the ScenarioContext
  // it is handed (deployment cores and nodes, catalog identity).
  const workload::ScenarioContext ctx = spec.scenario_context(cat);
  std::string key = spec.scenario().to_string();
  key += '\x1f';
  key += std::to_string(spec.seed());
  key += '\x1f';
  key += std::to_string(ctx.cores);
  key += '\x1f';
  key += std::to_string(ctx.nodes);
  key += '\x1f';
  key += std::to_string(reinterpret_cast<std::uintptr_t>(ctx.catalog));

  const auto it = scenarios_.find(key);
  if (it != scenarios_.end()) return it->second;
  if (scenarios_.size() >= kMaxCachedScenarios) scenarios_.clear();

  // Same independent stream as the historical run_experiment path: two
  // schedulers at the same seed see the identical call sequence.
  sim::Rng scenario_rng =
      sim::Rng(spec.seed()).fork(sim::hash_tag("scenario"));
  return scenarios_
      .emplace(std::move(key),
               workload::make_scenario(spec.scenario(), ctx, scenario_rng))
      .first->second;
}

CellResult CellWorkspace::run(const ExperimentSpec& spec,
                              const workload::FunctionCatalog& cat,
                              bool want_records) {
  engine_.reset();

  const SchedulerSpec sched = spec.scheduler().normalized();
  cluster::ClusterParams cp;
  cp.invoker = sched.invoker;
  cp.policy = sched.policy;
  cp.balancer = sched.balancer;
  // The spec's one deployment; its groups override the base NodeParams
  // that cores()/memory_mb() set.
  cp.deployment = spec.cluster();
  cp.node = spec.node_params();
  cp.workflow = spec.workflow();

  const workload::Scenario& scenario = scenario_for(spec, cat);

  cluster::Cluster cluster(engine_, cat, cp,
                           sim::Rng(spec.seed())
                               .fork(sim::hash_tag("cluster"))
                               .next_u64());
  cluster.adopt_collector_storage(std::move(storage_));
  cluster.warmup();
  cluster.run_scenario(scenario);
  engine_.run();

  const auto& col = cluster.collector();
  // expected_calls() is scenario.size() plus, under a workflow, every
  // spawned downstream stage.
  WHISK_CHECK(col.size() == cluster.expected_calls(),
              "not every call completed: the simulation deadlocked");

  // The one place every per-cell metric is filled.
  CellResult out;
  out.calls = col.size();
  if (want_records) out.records = col.records();
  out.responses = col.response_times();
  out.stretches = col.stretches();
  out.ok_calls = out.responses.size();
  out.max_completion = col.max_completion();
  out.stats = cluster.total_stats();
  out.groups = cluster.group_stats();
  out.resubmissions = cluster.resubmissions();
  out.node_hours = cluster.node_hours();
  out.cost_usd = cluster.cost_usd();
  out.scale_ups = cluster.scale_ups();
  out.scale_downs = cluster.scale_downs();
  out.faults_injected = cluster.faults_injected();
  out.retries = cluster.retries();
  out.timeouts = cluster.timeouts();
  out.hedges_won = cluster.hedges_won();
  out.shed_calls = col.shed_calls();
  out.dropped_calls = col.dropped_calls();
  out.breaker_opens = cluster.breaker_opens();
  out.unavailability_s = cluster.unavailability_s();
  out.workflows = col.workflows().size();
  out.wf_e2e_p99 = col.workflow_e2e_p99();
  out.wf_critical_path_s = col.workflow_critical_path_mean();
  out.wf_slack_s = col.workflow_slack_mean();
  out.goodput = out.max_completion > 0.0
                    ? static_cast<double>(col.ok_calls()) / out.max_completion
                    : 0.0;
  if (cp.deployment.slo_set) {
    for (double r : out.responses) {
      if (r > cp.deployment.slo.threshold_s) ++out.slo_violations;
    }
  }

  // Take the column storage back before the cluster goes away; only
  // capacity survives into the next cell.
  storage_ = cluster.release_collector_storage();
  return out;
}

}  // namespace whisk::experiments
