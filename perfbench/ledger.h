#pragma once

// The per-layer half of the benchmark: passes that time the benchmark's own
// calls into each module's public functions. Nothing inside the library is
// instrumented, so the untraced passes run the exact production code.

#include <cstddef>
#include <vector>

#include "experiments/campaign.h"
#include "experiments/campaign_spec.h"
#include "workload/function.h"

namespace perfbench {

// Host seconds and counts gathered by traced serial passes (accumulated
// over every pass run into the same ledger).
struct LayerLedger {
  double scenario_s = 0.0;   // workload::make_scenario
  double build_s = 0.0;      // cluster::Cluster constructor + storage adoption
  double warmup_s = 0.0;     // Cluster::warmup
  double submit_s = 0.0;     // Cluster::run_scenario
  double run_s = 0.0;        // sim::Engine::run
  double summarize_s = 0.0;  // collector getters, total/group stats, streams
  double wall_s = 0.0;       // whole passes, cell expansion included
  std::size_t cells = 0;
  std::size_t scenario_reuses = 0;  // cells whose scenario was memoized
  std::size_t calls = 0;            // terminal records (ok + shed + dropped)
  std::size_t events = 0;           // callbacks Engine::run executed
  std::size_t pending_at_run = 0;   // Engine::pending() entering run()
  std::size_t attempts = 0;  // calls + retries + hedges + resubmissions
  std::size_t hedges = 0;
  std::size_t hedges_won = 0;
  std::size_t shed = 0;
  std::size_t dropped = 0;
  std::size_t cold_starts = 0;
  double daemon_wait_s = 0.0;  // simulated daemon queue wait, summed
  std::vector<double> cell_ms;  // host ms per cell
};

// Run every cell of `spec` serially through the same public calls, in the
// same order and with the same seeds, as experiments::CellWorkspace::run,
// timing each call into its ledger slot. The result is what run_campaign
// returns for the grid on any thread count, so its cells CSV/JSONL is the
// reference the untraced passes are checked against.
[[nodiscard]] whisk::experiments::CampaignResult run_traced_pass(
    const whisk::experiments::CampaignSpec& spec,
    const whisk::workload::FunctionCatalog& cat, bool retain_samples,
    LayerLedger& ledger);

// Host cost of the node model alone.
struct NodeLedger {
  double seconds = 0.0;  // scheduling the calls plus Engine::run
  std::size_t calls = 0;
  std::size_t events = 0;
};

// The node-only isolation pass: for every distinct (scheduler, scenario,
// cores, seed) of the grid, one invoker made through node::InvokerRegistry
// is fed the cell's one-node scenario straight from an Engine, with no
// Cluster in between. Aborts unless every call is delivered exactly once.
[[nodiscard]] NodeLedger run_node_pass(
    const whisk::experiments::CampaignSpec& spec,
    const whisk::workload::FunctionCatalog& cat);

}  // namespace perfbench
