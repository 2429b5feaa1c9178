// Ablation benches for the node model's design choices. Each panel
// is one campaign whose override axis sweeps one knob at the intermediate
// configuration (10 cores, intensity 60) and reports average/median
// response time of the affected scheduler.
//
//   1. History window length (paper fixes 10, citing [18]).
//   2. FC's sliding window T (paper suggests 60 s).
//   3. The dispatch gate (how shallow the management pipeline is kept; the
//      paper's invoker pulls one call at a time).
//   4. Baseline dockerd strain (what the cold-start storms cost).
//   5. Context-switch penalty of the proportional-share baseline (what
//      CPU pinning saves).
#include "bench_common.h"

using namespace whisk;

namespace {

// One campaign per panel: a single scheduler, the intermediate workload,
// the knob as an override axis. Groups land in knob-value order.
experiments::CampaignSpec panel_grid(const std::string& scheduler,
                                     const std::string& knob,
                                     std::vector<double> values, int reps) {
  experiments::CampaignSpec grid;
  grid.schedulers = {experiments::SchedulerSpec::parse(scheduler)};
  grid.scenarios = {workload::ScenarioSpec::parse("uniform?intensity=60")};
  grid.cores = {10};
  grid.overrides = {{knob, std::move(values)}};
  grid.seeds = bench::seed_range(reps);
  return grid;
}

// The knob values drive the grid AND the row labels (via label_fn), so the
// printed variant can never drift from the value actually swept.
template <typename LabelFn>
void run_panel(const workload::FunctionCatalog& cat, const char* title,
               const std::string& scheduler, const std::string& knob,
               const std::vector<double>& values, LabelFn&& label_fn,
               int reps) {
  const auto result = experiments::run_campaign(
      panel_grid(scheduler, knob, values, reps), cat,
      bench::campaign_options());

  std::printf("-- %s --\n", title);
  util::Table table({"variant", "avg R", "p50 R", "p95 R", "avg S"});
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const auto r = result.group_summary(g);
    table.add_row({label_fn(values[g]), util::fmt(r.response.mean),
                   util::fmt(r.response.p50), util::fmt(r.response.p95),
                   util::fmt(r.stretch.mean, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

int main() {
  const auto cat = workload::sebs_catalog();
  const int reps = std::max(2, bench::repetitions() - 2);
  std::printf("Ablations at 10 cores, intensity 60 (%d seeds pooled)\n\n",
              reps);

  run_panel(
      cat, "history window length (runtime estimate E(p))", "ours/sept",
      "history_window", {1, 3, 10, 50},
      [](double w) { return "SEPT, window " + util::fmt(w, 0); }, reps);
  run_panel(
      cat, "FC sliding window T", "ours/fc", "fc_window", {10.0, 60.0, 300.0},
      [](double t) { return "FC, T = " + util::fmt(t, 0) + " s"; }, reps);
  run_panel(
      cat,
      "dispatch gate (pipeline backlog at which pops pause; large "
      "values bury the priority queue)",
      "ours/sept", "dispatch_daemon_gate", {1, 3, 8, 32},
      [](double g) { return "SEPT, gate " + util::fmt(g, 0); }, reps);
  run_panel(
      cat, "baseline dockerd strain per live container", "baseline/fifo",
      "strain_per_container", {0.0, 0.005, 0.01},
      [](double s) { return "baseline, strain " + util::fmt(s, 3); }, reps);
  run_panel(
      cat, "baseline context-switch penalty (what pinning avoids)",
      "baseline/fifo", "context_switch_beta", {0.0, 0.3, 1.0},
      [](double b) { return "baseline, beta " + util::fmt(b, 1); }, reps);
  return 0;
}
