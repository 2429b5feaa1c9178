// Reproduces Fig. 2: the number of cold starts on 10 CPU cores as a
// function of the OpenWhisk memory pool size (2-128 GiB) and load intensity
// (30-120), for (a) the original OpenWhisk node-level scheduling and (b) our
// approach with the FIFO policy.
//
// Expected shapes (paper Sec. VI): for the baseline the count depends
// strongly on intensity and barely on memory (greedy container creation +
// eviction thrash); for our approach it drops as memory grows and is ~zero
// from 32 GiB, where the warm-up set is never evicted.
#include "bench_common.h"

using namespace whisk;

namespace {

void run_panel(const workload::FunctionCatalog& cat, bool baseline,
               int reps) {
  std::printf("Fig. 2(%c) — %s, cold starts on 10 cores (mean over %d "
              "seeds)\n\n",
              baseline ? 'a' : 'b',
              baseline ? "original OpenWhisk scheduling"
                       : "our approach (FIFO variant)",
              reps);
  const std::vector<double> memories_mib = {2048,  4096,  8192,  16384,
                                            32768, 65536, 131072};
  const std::vector<int> intensities = {30, 40, 60, 90, 120};

  // The whole panel is one campaign: intensities as scenario items, memory
  // as a deployment axis. Groups land scenario-major, memory-minor.
  experiments::CampaignSpec grid;
  grid.schedulers = {experiments::SchedulerSpec::parse(
      baseline ? "baseline/fifo" : "ours/fifo")};
  grid.scenarios.clear();
  for (int v : intensities) {
    grid.scenarios.push_back(workload::ScenarioSpec::parse(
        "uniform?intensity=" + std::to_string(v)));
  }
  grid.cores = {10};
  grid.memories_mb = memories_mib;
  grid.seeds = bench::seed_range(reps);
  const auto result =
      experiments::run_campaign(grid, cat, bench::campaign_options());

  std::vector<std::string> header = {"memory [MiB]"};
  for (int v : intensities) header.push_back("int " + std::to_string(v));
  util::Table table(header);

  for (std::size_t m = 0; m < memories_mib.size(); ++m) {
    std::vector<std::string> row = {util::fmt(memories_mib[m], 0)};
    for (std::size_t v = 0; v < intensities.size(); ++v) {
      const auto cells = result.group(
          grid.group_index({.scenario_i = v, .memory_i = m}));
      const auto stats = experiments::total_stats(cells);
      row.push_back(util::fmt(static_cast<double>(stats.cold_starts) /
                                  static_cast<double>(cells.size()),
                              0));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  const auto cat = workload::sebs_catalog();
  const int reps = bench::repetitions();
  run_panel(cat, /*baseline=*/true, reps);
  run_panel(cat, /*baseline=*/false, reps);
  std::printf(
      "Paper reference: (a) >1100 cold starts at intensity 120 regardless "
      "of memory; (b) cold starts flat/near-zero from 32 GiB.\n");
  return 0;
}
