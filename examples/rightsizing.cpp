// Example: cluster right-sizing as a cost/SLO frontier. The paper's
// operational claim (Sec. VIII) is that a better scheduler lets an operator
// run the same peak load on fewer machines without hurting the
// response-time statistics. This example extends that question to the
// autoscaling era: instead of asking "how many nodes do I need", it asks
// "what does each sizing strategy cost, and does it hold the SLO?"
//
// One campaign sweeps fixed fleets of 1..6 nodes against a closed-loop
// target-util autoscaler (start at 2, scale within [1, 6]) on the same
// burst, with a cost-per-hour on every node and an SLO of p99 < 15 s. The
// frontier table prints, per strategy: metered cost (node-seconds pro-rated
// over joins and drains), response statistics, SLO violations, and the
// autoscaler's activity — so you can read off which fixed fleet the
// autoscaler matches on latency and which it beats on cost.
//
// Usage: rightsizing [total_requests] [cpus_per_node]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiments/campaign.h"
#include "util/thread_pool.h"

using namespace whisk;

namespace {

// $/node-hour and the SLO threshold every deployment in the sweep carries.
constexpr double kCostPerHour = 0.48;

std::string fixed_fleet(int nodes) {
  return "node:" + std::to_string(nodes) + "?cost-per-hour=0.48; " +
         "slo=p99<15";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t total =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 600;
  const int cpus = argc > 2 ? std::atoi(argv[2]) : 18;

  const auto catalog = workload::sebs_catalog();
  std::printf(
      "Cost/SLO frontier: %zu requests in a 60 s burst, %d-core workers,\n"
      "$%.2f per node-hour, SLO p99 < 15 s\n\n",
      total, cpus, kCostPerHour);

  // One campaign: the deployment axis carries five fixed fleets plus one
  // autoscaled fleet; every cell uses the FC scheduler and the same seeds,
  // so rows differ only in the sizing strategy.
  experiments::CampaignSpec grid;
  grid.schedulers = {experiments::SchedulerSpec::parse("ours/fc")};
  grid.scenarios = {workload::ScenarioSpec::parse(
      "fixed-total?total=" + std::to_string(total))};
  std::vector<std::string> labels;
  grid.clusters.clear();
  for (int n : {1, 2, 3, 4, 6}) {
    grid.clusters.push_back(cluster::ClusterSpec::parse(fixed_fleet(n)));
    labels.push_back("fixed x" + std::to_string(n));
  }
  grid.clusters.push_back(cluster::ClusterSpec::parse(
      "node:2?cost-per-hour=0.48&min-nodes=1&max-nodes=6; "
      "autoscaler=target-util?low=0.25&high=0.7&tick-s=1&cooldown-s=1; "
      "slo=p99<15"));
  labels.push_back("target-util 1..6");
  grid.cores = {cpus};
  grid.seeds = {0, 1, 2};
  experiments::CampaignOptions opts;
  opts.threads = util::ThreadPool::hardware_threads();
  const auto result = experiments::run_campaign(grid, catalog, opts);

  std::printf("%-17s %9s %9s %8s %8s %8s %7s %11s\n", "strategy",
              "node-hrs", "cost [$]", "avg R", "p95 R", "p99 R", "SLO ok",
              "up/down");
  for (std::size_t c = 0; c < grid.clusters.size(); ++c) {
    const std::size_t g = grid.group_index({.cluster_i = c});
    const auto cells = result.group(g);
    const auto group = result.group_summary(g);
    const auto& sum = group.response;
    double node_hours = 0.0;
    double cost = 0.0;
    std::size_t violations = 0;
    std::size_t ups = 0;
    std::size_t downs = 0;
    for (const auto& cell : cells) {
      node_hours += cell.node_hours;
      cost += cell.cost_usd;
      violations += cell.slo_violations;
      ups += cell.scale_ups;
      downs += cell.scale_downs;
    }
    const double seeds = static_cast<double>(cells.size());
    std::printf("%-17s %9.3f %9.4f %8.1f %8.1f %8.1f %6.1f%% %6zu/%zu\n",
                labels[c].c_str(), node_hours / seeds, cost / seeds,
                sum.mean, sum.p95, sum.p99,
                100.0 * static_cast<double>(group.calls - violations) /
                    static_cast<double>(group.calls),
                ups, downs);
  }

  std::printf(
      "\nReading: walk down the fixed rows until the SLO holds — that is\n"
      "the fleet you would provision statically, and its cost is the\n"
      "static frontier. The autoscaled row rides the burst instead: it\n"
      "joins nodes while the backlog grows, drains them as it clears, and\n"
      "lands near the latency of the compliant fixed fleet at a metered\n"
      "cost near the smaller ones.\n");
  return 0;
}
