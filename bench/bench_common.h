#pragma once

// Shared helpers for the paper-reproduction bench binaries. Each binary
// regenerates one table or figure of the paper and prints simulated values
// next to the paper's measured ones where available (README, "Figure
// benches as campaigns", lists each bench's grid).
//
// The benches run their grids through experiments::run_campaign: the sweep
// is declared once as a CampaignSpec and executed by the striped
// util::ThreadPool::parallel_for. Campaign determinism guarantees the
// printed numbers are identical to the old serial rep loops (and to any
// WHISK_BENCH_THREADS value).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiments/campaign.h"
#include "experiments/paper_data.h"
#include "experiments/runner.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace whisk::bench {

// Number of seeded repetitions per configuration; the paper uses 5.
// Override with WHISK_BENCH_REPS for quicker smoke runs.
inline int repetitions() {
  if (const char* env = std::getenv("WHISK_BENCH_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 5;
}

// Campaign worker threads; override with WHISK_BENCH_THREADS. The output
// does not depend on the value (campaign determinism contract).
inline int threads() {
  if (const char* env = std::getenv("WHISK_BENCH_THREADS")) {
    const int t = std::atoi(env);
    if (t > 0) return t;
  }
  return util::ThreadPool::hardware_threads();
}

// The paper's seeds 0..reps-1.
inline std::vector<std::uint64_t> seed_range(int reps) {
  return experiments::CampaignSpec::first_seeds(reps);
}

inline experiments::CampaignOptions campaign_options() {
  experiments::CampaignOptions opts;
  opts.threads = threads();
  return opts;
}

// "value (paper ref)" cell, or just the value when no reference exists.
inline std::string with_ref(double value, double ref, int precision = 2) {
  return util::fmt(value, precision) + " (" + util::fmt(ref, precision) + ")";
}

// The six paper schedulers (figure order) over one scenario/deployment;
// groups come back in paper_schedulers() order.
inline experiments::CampaignSpec paper_scheduler_grid(
    const std::string& scenario, int cores, int reps, int nodes = 1) {
  experiments::CampaignSpec grid;
  grid.schedulers = experiments::paper_schedulers();
  grid.scenarios = {workload::ScenarioSpec::parse(scenario)};
  grid.cores = {cores};
  grid.nodes = {nodes};
  grid.seeds = seed_range(reps);
  return grid;
}

}  // namespace whisk::bench
