// Example: anatomy of an overload burst. Runs one seeded experiment under
// a chosen policy and prints a per-function breakdown (who waits, who
// executes, who gets discriminated against) plus a 5-second timeline of the
// node's backlog drain.
//
// Usage: overload_burst [policy] [intensity]
//   policy    fifo | sept | eect | rect | fc | baseline   (default sept)
//   intensity multiple of 10                              (default 60)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "experiments/runner.h"
#include "util/stats.h"

using namespace whisk;

int main(int argc, char** argv) {
  const std::string policy = argc > 1 ? argv[1] : "sept";
  const int intensity = argc > 2 ? std::atoi(argv[2]) : 60;

  const auto catalog = workload::sebs_catalog();
  const auto cfg =
      experiments::ExperimentSpec()
          .cores(10)
          .scenario("uniform?intensity=" + std::to_string(intensity))
          .seed(3)
          .scheduler(policy == "baseline" ? "baseline/fifo"
                                          : "ours/" + policy);

  const auto run = experiments::run_experiment(cfg, catalog);
  std::printf("policy=%s, 10 cores, intensity %d: %zu calls, %zu cold "
              "starts, %zu evictions\n\n",
              policy.c_str(), intensity, run.records.size(),
              run.stats.cold_starts, run.stats.evictions);

  std::printf("%-18s %5s %10s %10s %10s %10s\n", "function", "calls",
              "avg wait", "avg exec", "avg R [s]", "avg S");
  for (const auto& spec : catalog.specs()) {
    double wait = 0.0, exec = 0.0, resp = 0.0;
    int n = 0;
    for (const auto& rec : run.records) {
      if (rec.function != spec.id) continue;
      wait += rec.queue_wait();
      exec += rec.exec_end - rec.exec_start;
      resp += rec.response();
      ++n;
    }
    if (n == 0) continue;
    const double ref = catalog.reference_median(spec.id);
    std::printf("%-18s %5d %10.2f %10.2f %10.2f %10.1f\n",
                spec.name.c_str(), n, wait / n, exec / n, resp / n,
                resp / n / ref);
  }

  // Completion timeline: how the backlog drains after the 60 s window.
  std::printf("\ncompletions per 5 s bucket (burst ends at t=60):\n");
  double horizon = 0.0;
  for (const auto& rec : run.records) {
    horizon = std::max(horizon, rec.completion);
  }
  for (double t = 0.0; t < horizon; t += 5.0) {
    int done = 0;
    for (const auto& rec : run.records) {
      if (rec.completion >= t && rec.completion < t + 5.0) ++done;
    }
    std::printf("  t=%6.0f..%-6.0f %4d |%s\n", t, t + 5.0, done,
                std::string(static_cast<std::size_t>(done / 2), '#').c_str());
  }
  return 0;
}
