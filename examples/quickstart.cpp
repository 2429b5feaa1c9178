// Quickstart: simulate one overloaded FaaS worker node and compare the
// stock OpenWhisk invoker with the paper's SEPT policy.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "experiments/runner.h"
#include "util/stats.h"

using namespace whisk;

int main() {
  // The 11 SeBS functions of the paper's Table I.
  const auto catalog = workload::sebs_catalog();

  // One worker with 10 cores for action containers, hit by a 60-second
  // burst at intensity 40 (1.1 * 10 * 40 = 440 requests).
  auto cfg = experiments::ExperimentSpec()
                 .cores(10)
                 .scenario("uniform?intensity=40")
                 .seed(1);

  std::printf("One 10-core node, 440 requests in a 60 s burst:\n\n");
  std::printf("%-10s %10s %10s %10s %12s %6s\n", "scheduler", "avg R [s]",
              "p50 R [s]", "p95 R [s]", "avg stretch", "cold");

  for (const auto& sched : experiments::paper_schedulers()) {
    cfg.scheduler(sched);
    const auto run = experiments::run_experiment(cfg, catalog);
    const auto r = util::summarize(run.responses);
    const auto s = util::summarize(run.stretches);
    std::printf("%-10s %10.2f %10.2f %10.2f %12.1f %6zu\n",
                sched.label().c_str(), r.mean, r.p50, r.p95, s.mean,
                run.stats.cold_starts);
  }

  std::printf(
      "\nSEPT/FC should cut the average response several-fold versus the\n"
      "baseline and our FIFO — the paper's headline single-node result.\n");
  return 0;
}
