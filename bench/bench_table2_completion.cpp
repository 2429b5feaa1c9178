// Reproduces Table II: maximum request completion times, reported as the
// FIFO-to-baseline ratio (min-max over the 5 seeded experiments) for every
// (CPU cores, intensity) pair.
//
// Expected shape: our FIFO is *slower* to drain the burst than the baseline
// at few cores / low intensity (ratios > 1) and drains much faster at 20
// cores (ratios well below 1), because the baseline's cold-start storms and
// dockerd strain grow with the total request count.
#include <algorithm>

#include "bench_common.h"

using namespace whisk;

int main() {
  const auto cat = workload::sebs_catalog();
  const int reps = bench::repetitions();
  const std::vector<int> core_counts = {5, 10, 20};
  const std::vector<int> intensities = {30, 40, 60, 90, 120};

  std::printf(
      "Table II — max completion time, FIFO-to-baseline ratio "
      "(min-max over %d seeds)\nSimulated range with the paper's range in "
      "parentheses.\n\n",
      reps);

  // The whole table is one campaign: 2 schedulers x 5 intensities x
  // 3 core counts x reps seeds. Per-seed ratios pair the FIFO and baseline
  // cells of the same (scenario, cores, seed) coordinate.
  experiments::CampaignSpec grid;
  grid.schedulers = {experiments::SchedulerSpec::parse("ours/fifo"),
                     experiments::SchedulerSpec::parse("baseline/fifo")};
  grid.scenarios.clear();
  for (int v : intensities) {
    grid.scenarios.push_back(workload::ScenarioSpec::parse(
        "uniform?intensity=" + std::to_string(v)));
  }
  grid.cores = core_counts;
  grid.seeds = bench::seed_range(reps);
  const auto result =
      experiments::run_campaign(grid, cat, bench::campaign_options());

  auto group = [&](std::size_t sched_i, std::size_t scen_i,
                   std::size_t cores_i) {
    return result.group(grid.group_index(
        {.scheduler_i = sched_i, .scenario_i = scen_i, .cores_i = cores_i}));
  };

  std::vector<std::string> header = {"cores"};
  for (int v : intensities) header.push_back("int " + std::to_string(v));
  util::Table table(header);

  for (std::size_t c = 0; c < core_counts.size(); ++c) {
    std::vector<std::string> row = {std::to_string(core_counts[c])};
    for (std::size_t v = 0; v < intensities.size(); ++v) {
      const auto fifo = group(0, v, c);
      const auto base = group(1, v, c);
      double lo = 1e30;
      double hi = 0.0;
      for (std::size_t s = 0; s < fifo.size(); ++s) {
        const double ratio = fifo[s].max_completion / base[s].max_completion;
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
      }
      std::string cell = util::fmt_range(lo, hi);
      if (auto ref = experiments::paper::find_completion_ratio(
              core_counts[c], intensities[v])) {
        cell += " (" + util::fmt_range(ref->ratio_lo, ref->ratio_hi) + ")";
      }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
