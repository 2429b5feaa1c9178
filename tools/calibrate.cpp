// Calibration harness: runs a handful of key configurations and prints the
// simulated metrics next to the paper's measured values (Table III), so the
// NodeParams constants can be tuned to reproduce the paper's shapes.
#include <cstdio>
#include <string>

#include "experiments/campaign.h"
#include "experiments/paper_data.h"
#include "util/check.h"
#include "util/thread_pool.h"

using namespace whisk;

namespace {

struct Anchor {
  int cores;
  int intensity;
  const char* scheduler;  // "baseline" or policy name
};

// Selected anchor rows of Table III; the paper's values come from
// experiments::paper::table3().
const Anchor kAnchors[] = {
    {5, 30, "baseline"},   {5, 30, "FIFO"},      {5, 120, "baseline"},
    {5, 120, "FIFO"},      {10, 30, "baseline"}, {10, 30, "FIFO"},
    {10, 30, "SEPT"},      {10, 30, "FC"},       {10, 40, "baseline"},
    {10, 40, "FIFO"},      {10, 40, "SEPT"},     {10, 60, "baseline"},
    {10, 60, "FIFO"},      {10, 60, "SEPT"},     {10, 60, "EECT"},
    {10, 60, "RECT"},      {10, 60, "FC"},       {10, 120, "baseline"},
    {10, 120, "FIFO"},     {20, 30, "baseline"}, {20, 30, "FIFO"},
    {20, 40, "baseline"},  {20, 40, "FIFO"},     {20, 40, "SEPT"},
    {20, 120, "baseline"}, {20, 120, "FIFO"},    {20, 120, "FC"},
};

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 2;
  const auto cat = workload::sebs_catalog();

  std::printf(
      "%5s %4s %-8s | %9s %9s | %9s %9s | %9s %9s | %10s %10s | %6s\n",
      "cores", "int", "sched", "avgR_sim", "avgR_pap", "p50R_sim",
      "p50R_pap", "maxC_sim", "maxC_pap", "avgS_sim", "avgS_pap", "cold");
  experiments::CampaignOptions opts;
  opts.threads = util::ThreadPool::hardware_threads();
  for (const auto& t : kAnchors) {
    const auto paper =
        experiments::paper::find_single_node(t.cores, t.intensity,
                                             t.scheduler);
    WHISK_CHECK(paper.has_value(), "calibration anchor missing from Table III");
    // One single-group campaign per anchor row (the target list is sparse,
    // not a cross product); the pool still parallelizes over its seeds.
    experiments::CampaignSpec grid;
    grid.schedulers = {experiments::SchedulerSpec::parse(
        std::string(t.scheduler) == "baseline"
            ? "baseline/fifo"
            : "ours/" + std::string(t.scheduler))};
    grid.scenarios = {workload::ScenarioSpec::parse(
        "uniform?intensity=" + std::to_string(t.intensity))};
    grid.cores = {t.cores};
    grid.seeds = experiments::CampaignSpec::first_seeds(reps);
    const auto result = experiments::run_campaign(grid, cat, opts);
    const auto group = result.group_summary(0);
    std::printf(
        "%5d %4d %-8s | %9.2f %9.2f | %9.2f %9.2f | %9.1f %9.1f | %10.1f "
        "%10.1f | %6zu\n",
        t.cores, t.intensity, t.scheduler, group.response.mean, paper->r_avg,
        group.response.p50, paper->r_p50, group.max_completion, paper->max_c,
        group.stretch.mean, paper->s_avg,
        group.cold_starts / result.cells.size());
  }
  return 0;
}
