#pragma once

#include <string>
#include <unordered_map>

#include "experiments/campaign.h"
#include "experiments/experiment_spec.h"
#include "metrics/collector.h"
#include "sim/engine.h"
#include "workload/function.h"
#include "workload/scenario.h"

namespace whisk::experiments {

// A reusable, worker-local execution context for experiment cells — the
// campaign hot path. One workspace replaces the fresh-everything-per-cell
// construction with warm state that survives from cell to cell:
//
//   * the sim::Engine is reset(), not destroyed: its slot arena, heap array
//     and free list keep their capacity, so the next cell's thousands of
//     schedule/execute pairs run entirely allocation-free;
//   * the Collector's struct-of-arrays columns are recycled through
//     Cluster::adopt_collector_storage / release_collector_storage
//     (clear-not-free), so record collection stops allocating once the
//     columns have grown to the grid's largest cell;
//   * generated scenarios are memoized by their full identity (spec string,
//     seed, and the ScenarioContext's cores, nodes and catalog), so a grid
//     that crosses S schedulers with the same scenario x seed axis
//     generates each call sequence once instead of S times.
//
// The Cluster itself is reconstructed per cell — its invokers, pools and
// balancer are seeded from the cell's coordinates, so their state can never
// legally survive — but it is re-deployed over the warm engine and adopts
// the recycled collector storage, which is where the per-cell allocation
// cost lived.
//
// Byte-identity contract: a workspace run produces bit-identical results to
// a fresh-construction run. The engine orders events on (time, seq) alone
// (slot recycling cannot reorder anything), the collector round-trips only
// container capacity, and the scenario cache is keyed by every input of
// workload::make_scenario. The workspace-reuse test pins this against
// run_experiment across grids, including chaos (faults + workflows) cells.
//
// Not thread-safe: one workspace per worker (run_campaign keeps a vector of
// them, indexed by parallel_for's worker id). Cached scenarios identify
// their catalog by address, so catalogs must outlive the workspace.
class CellWorkspace {
 public:
  CellWorkspace() = default;
  CellWorkspace(const CellWorkspace&) = delete;
  CellWorkspace& operator=(const CellWorkspace&) = delete;

  // Run one cell end to end (warm-up, burst, drain), exactly like
  // run_experiment: every metric, exact samples (index left 0). With
  // want_records = false the records vector stays empty (calls still counts
  // the resolved calls) — campaigns that neither retain nor stream records
  // skip materializing them entirely.
  [[nodiscard]] CellResult run(const ExperimentSpec& spec,
                               const workload::FunctionCatalog& cat,
                               bool want_records = true);

 private:
  // The cell's scenario, generated on first use and memoized. The cache is
  // emptied wholesale if it ever reaches kMaxCachedScenarios (a bound for
  // pathological grids; typical grids hold seeds x scenarios entries).
  [[nodiscard]] const workload::Scenario& scenario_for(
      const ExperimentSpec& spec, const workload::FunctionCatalog& cat);

  static constexpr std::size_t kMaxCachedScenarios = 4096;

  sim::Engine engine_;
  metrics::Collector storage_;  // parked between runs, capacity warm
  std::unordered_map<std::string, workload::Scenario> scenarios_;
};

}  // namespace whisk::experiments
