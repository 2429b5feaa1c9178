#include "ledger.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>

#include "cluster/cluster.h"
#include "metrics/collector.h"
#include "node/invoker_registry.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "util/check.h"
#include "workload/scenario_registry.h"

namespace perfbench {
namespace {

using namespace whisk;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CellWorkspace's memo key minus the catalog address (one catalog per
// pass): every other input of make_scenario.
std::string scenario_key(const experiments::ExperimentSpec& spec) {
  return spec.scenario().to_string() + '\x1f' + std::to_string(spec.seed()) +
         '\x1f' + std::to_string(spec.cores()) + '\x1f' +
         std::to_string(spec.nodes()) + '\x1f' +
         std::to_string(spec.intensity());
}

// experiments::CellWorkspace::run with a timer around each layer call:
// warm engine via reset(), recycled collector storage, memoized scenarios.
class TracedWorkspace {
 public:
  experiments::CellResult run(const experiments::CampaignCell& cell,
                              const workload::FunctionCatalog& cat,
                              bool retain_samples, LayerLedger& ledger);

 private:
  sim::Engine engine_;
  metrics::Collector storage_;
  std::unordered_map<std::string, workload::Scenario> scenarios_;
};

experiments::CellResult TracedWorkspace::run(
    const experiments::CampaignCell& cell,
    const workload::FunctionCatalog& cat, bool retain_samples,
    LayerLedger& ledger) {
  const experiments::ExperimentSpec& spec = cell.spec;
  engine_.reset();

  const experiments::SchedulerSpec sched = spec.scheduler().normalized();
  cluster::ClusterParams cp;
  cp.invoker = sched.invoker;
  cp.policy = sched.policy;
  cp.balancer = sched.balancer;
  cp.deployment = spec.cluster();
  cp.node = spec.node_params();
  cp.workflow = spec.workflow();

  std::string key = scenario_key(spec);
  auto it = scenarios_.find(key);
  if (it != scenarios_.end()) {
    ++ledger.scenario_reuses;
  } else {
    const auto t0 = Clock::now();
    sim::Rng rng = sim::Rng(spec.seed()).fork(sim::hash_tag("scenario"));
    workload::Scenario scenario = workload::make_scenario(
        spec.scenario(), spec.scenario_context(cat), rng);
    ledger.scenario_s += since(t0);
    it = scenarios_.emplace(std::move(key), std::move(scenario)).first;
  }

  auto t0 = Clock::now();
  cluster::Cluster cluster(
      engine_, cat, cp,
      sim::Rng(spec.seed()).fork(sim::hash_tag("cluster")).next_u64());
  cluster.adopt_collector_storage(std::move(storage_));
  ledger.build_s += since(t0);

  t0 = Clock::now();
  cluster.warmup();
  ledger.warmup_s += since(t0);

  t0 = Clock::now();
  cluster.run_scenario(it->second);
  ledger.submit_s += since(t0);

  ledger.pending_at_run += engine_.pending();
  t0 = Clock::now();
  ledger.events += engine_.run();
  ledger.run_s += since(t0);

  // The RunResult -> CellResult copy of workspace.cpp and campaign.cpp,
  // folded into one step.
  t0 = Clock::now();
  const metrics::Collector& col = cluster.collector();
  WHISK_CHECK(col.size() == cluster.expected_calls(),
              "not every call completed: the simulation deadlocked");
  experiments::CellResult res;
  res.index = cell.index;
  res.calls = col.size();
  std::vector<double> responses = col.response_times();
  std::vector<double> stretches = col.stretches();
  res.ok_calls = responses.size();
  res.max_completion = col.max_completion();
  res.stats = cluster.total_stats();
  res.groups = cluster.group_stats();
  res.resubmissions = cluster.resubmissions();
  res.node_hours = cluster.node_hours();
  res.cost_usd = cluster.cost_usd();
  res.scale_ups = cluster.scale_ups();
  res.scale_downs = cluster.scale_downs();
  res.faults_injected = cluster.faults_injected();
  res.retries = cluster.retries();
  res.timeouts = cluster.timeouts();
  res.hedges_won = cluster.hedges_won();
  res.shed_calls = col.shed_calls();
  res.dropped_calls = col.dropped_calls();
  res.breaker_opens = cluster.breaker_opens();
  res.unavailability_s = cluster.unavailability_s();
  res.workflows = col.workflows().size();
  res.wf_e2e_p99 = col.workflow_e2e_p99();
  res.wf_critical_path_s = col.workflow_critical_path_mean();
  res.wf_slack_s = col.workflow_slack_mean();
  res.goodput =
      res.max_completion > 0.0
          ? static_cast<double>(col.ok_calls()) / res.max_completion
          : 0.0;
  if (cp.deployment.slo_set) {
    for (double r : responses) {
      if (r > cp.deployment.slo.threshold_s) ++res.slo_violations;
    }
  }
  if (retain_samples) {
    res.responses = std::move(responses);
    res.stretches = std::move(stretches);
  } else {
    const std::size_t capacity = experiments::CampaignOptions{}.reservoir_capacity;
    res.response_stream = metrics::StreamingSummary(capacity);
    res.stretch_stream = metrics::StreamingSummary(capacity);
    for (double r : responses) res.response_stream.add(r);
    for (double s : stretches) res.stretch_stream.add(s);
  }
  ledger.summarize_s += since(t0);

  ledger.calls += res.calls;
  ledger.attempts +=
      res.calls + res.retries + cluster.hedges() + res.resubmissions;
  ledger.hedges += cluster.hedges();
  ledger.hedges_won += res.hedges_won;
  ledger.shed += res.shed_calls;
  ledger.dropped += res.dropped_calls;
  ledger.cold_starts += res.stats.cold_starts;
  ledger.daemon_wait_s += res.stats.daemon_queue_wait_seconds;

  storage_ = cluster.release_collector_storage();
  return res;
}

[[noreturn]] void node_pass_abort(const char* what, std::size_t cell) {
  std::fprintf(stderr, "node-only pass, cell %zu: %s\n", cell, what);
  std::abort();
}

}  // namespace

experiments::CampaignResult run_traced_pass(
    const experiments::CampaignSpec& spec,
    const workload::FunctionCatalog& cat, bool retain_samples,
    LayerLedger& ledger) {
  const auto t0 = Clock::now();
  experiments::CampaignResult out;
  out.spec = spec.normalized();
  out.shard = out.spec.shard(0, 1);
  out.cells.reserve(out.spec.size());
  TracedWorkspace workspace;
  for (std::size_t i = 0; i < out.spec.size(); ++i) {
    const experiments::CampaignCell cell = out.spec.cell(i);
    const auto tc = Clock::now();
    out.cells.push_back(workspace.run(cell, cat, retain_samples, ledger));
    ledger.cell_ms.push_back(1e3 * since(tc));
  }
  ledger.cells += out.cells.size();
  ledger.wall_s += since(t0);
  return out;
}

NodeLedger run_node_pass(const experiments::CampaignSpec& raw_spec,
                         const workload::FunctionCatalog& cat) {
  const experiments::CampaignSpec spec = raw_spec.normalized();
  sim::Engine engine;
  NodeLedger out;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    // Deployment-side axes do not reach a lone invoker: keep the first
    // coordinate of each so every (scheduler, scenario, cores, seed) runs
    // once.
    const experiments::CampaignCell at = spec.coordinates(i);
    bool first_deployment = at.nodes_i == 0 && at.memory_i == 0 &&
                            at.cluster_i == 0 && at.autoscaler_i == 0 &&
                            at.faults_i == 0 && at.workflow_i == 0;
    for (std::size_t k : at.override_i) first_deployment &= k == 0;
    if (!first_deployment) continue;

    const experiments::CampaignCell cell = spec.cell(i);
    const experiments::ExperimentSpec& x = cell.spec;
    // One node's share of the load: the scenario sized for a single node of
    // the cell's per-node core count.
    workload::ScenarioContext ctx = x.scenario_context(cat);
    ctx.cores = x.cores();
    ctx.nodes = 1;
    sim::Rng scenario_rng = sim::Rng(x.seed()).fork(sim::hash_tag("scenario"));
    const workload::Scenario scenario =
        workload::make_scenario(x.scenario(), ctx, scenario_rng);
    const experiments::SchedulerSpec sched = x.scheduler().normalized();
    const node::NodeParams params =
        x.cluster().normalized().node_params(0, x.node_params());
    // Node 0's stream in a Cluster seeded like the campaign cell.
    const sim::Rng node_rng =
        sim::Rng(sim::Rng(x.seed()).fork(sim::hash_tag("cluster")).next_u64())
            .fork(sim::hash_tag("node"));

    engine.reset();
    std::vector<char> delivered(scenario.size(), 0);
    std::size_t records = 0;
    auto on_delivery = [&](const metrics::CallRecord& rec) {
      if (rec.id < 0 || static_cast<std::size_t>(rec.id) >= delivered.size()) {
        node_pass_abort("delivered a record for an unknown call", i);
      }
      if (delivered[static_cast<std::size_t>(rec.id)] != 0) {
        node_pass_abort("delivered a call twice", i);
      }
      delivered[static_cast<std::size_t>(rec.id)] = 1;
      ++records;
    };
    auto invoker = node::InvokerRegistry::instance().create(
        sched.invoker, node::InvokerArgs{engine, cat, params, node_rng,
                                         on_delivery, sched.policy});
    invoker->warmup();

    const auto t0 = Clock::now();
    node::Invoker* target = invoker.get();
    for (const workload::CallRequest& call : scenario.calls) {
      engine.schedule_at(call.release, [target, call] { target->submit(call); });
    }
    out.events += engine.run();
    out.seconds += since(t0);
    out.calls += scenario.size();
    if (records != scenario.size()) {
      node_pass_abort("did not deliver one record per scenario call", i);
    }
  }
  return out;
}

}  // namespace perfbench
