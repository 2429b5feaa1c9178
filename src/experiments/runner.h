#pragma once

#include <vector>

#include "experiments/campaign.h"
#include "experiments/experiment_spec.h"
#include "workload/function.h"

namespace whisk::experiments {

// Run one seeded experiment end to end (warm-up, 60 s burst, drain): the
// cell's CellResult with exact samples and every record (index 0).
[[nodiscard]] CellResult run_experiment(const ExperimentSpec& spec,
                                        const workload::FunctionCatalog& cat);

// Run `reps` seeded repetitions serially and return the per-seed results.
//
// Seed contract: repetition r runs at seed spec.seed() + r — the caller's
// base seed is respected, never clobbered. With the default base seed 0 and
// reps = 5 this is exactly the paper's five sequences (seeds 0..4), which
// the figure/table pins rely on. This is the serial reference path; sweeps
// over schedulers/scenarios/seeds belong on experiments::run_campaign
// (campaign.h), whose per-cell output is pinned byte-identical to this
// function's.
[[nodiscard]] std::vector<CellResult> run_repetitions(
    ExperimentSpec spec, const workload::FunctionCatalog& cat, int reps = 5);

// Closed-loop idle-system benchmark of a single function (Table I): `calls`
// sequential invocations on a warm single-node deployment; returns the
// client-side response times in seconds.
[[nodiscard]] std::vector<double> run_idle_function_benchmark(
    const workload::FunctionCatalog& cat, workload::FunctionId fn,
    int calls, std::uint64_t seed, int cores = 10);

}  // namespace whisk::experiments
