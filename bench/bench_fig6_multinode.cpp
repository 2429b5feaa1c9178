// Reproduces Fig. 6 and Tables V-VI: the multi-node experiments. A fixed
// request sequence (1320 requests for 10-CPU workers, 2376 for 18-CPU
// workers) is processed by 4, 3, 2 and 1 worker VMs under the baseline and
// under our FC strategy.
//
// Headline shape (Sec. VIII): FC on 3 machines provides better
// response-time statistics than the baseline on 4 machines.
#include "bench_common.h"

using namespace whisk;

namespace {

void run_series(const workload::FunctionCatalog& cat, int cpus_per_node,
                std::size_t total_requests, int reps) {
  std::printf(
      "-- %d-CPU workers, constant load of %zu requests (%d seeds pooled) "
      "--\n",
      cpus_per_node, total_requests, reps);

  // One campaign: both schedulers x all fleet sizes.
  const std::vector<int> fleet = {4, 3, 2, 1};
  experiments::CampaignSpec grid;
  grid.schedulers = {experiments::SchedulerSpec::parse("baseline/fifo"),
                     experiments::SchedulerSpec::parse("ours/fc")};
  grid.scenarios = {workload::ScenarioSpec::parse(
      "fixed-total?total=" + std::to_string(total_requests))};
  grid.nodes = fleet;
  grid.cores = {cpus_per_node};
  grid.seeds = bench::seed_range(reps);
  const auto result =
      experiments::run_campaign(grid, cat, bench::campaign_options());

  util::Table table({"nodes", "scheduler", "avg", "p50", "p75", "p95", "p99",
                     "max c(i)"});
  for (std::size_t n = 0; n < fleet.size(); ++n) {
    for (std::size_t s = 0; s < grid.schedulers.size(); ++s) {
      const char* label = s == 0 ? "baseline" : "FC";
      const auto group = result.group_summary(
          grid.group_index({.scheduler_i = s, .nodes_i = n}));
      const auto& sum = group.response;
      const double max_c = group.max_completion;

      const auto ref = experiments::paper::find_multi_node(
          fleet[n], cpus_per_node, label);
      table.add_row(
          {std::to_string(fleet[n]), label,
           ref ? bench::with_ref(sum.mean, ref->r_avg) : util::fmt(sum.mean),
           ref ? bench::with_ref(sum.p50, ref->r_p50) : util::fmt(sum.p50),
           ref ? bench::with_ref(sum.p75, ref->r_p75) : util::fmt(sum.p75),
           ref ? bench::with_ref(sum.p95, ref->r_p95) : util::fmt(sum.p95),
           ref ? bench::with_ref(sum.p99, ref->r_p99) : util::fmt(sum.p99),
           ref ? bench::with_ref(max_c, ref->max_c) : util::fmt(max_c)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  const auto cat = workload::sebs_catalog();
  const int reps = bench::repetitions();
  std::printf(
      "Fig. 6 / Tables V-VI — multi-node runs.\n"
      "Simulated value with the paper's measurement in parentheses.\n\n");
  run_series(cat, 10, 1320, reps);
  run_series(cat, 18, 2376, reps);
  return 0;
}
