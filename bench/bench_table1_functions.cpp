// Reproduces Table I: client-side response-time percentiles of the 11 SeBS
// functions, measured 50 calls each on an idle, warmed single-node setup.
// The simulated medians should track the paper's (they calibrate the
// workload model), and the ~10 ms constant overhead should be visible on
// the very short graph functions.
//
// The closed-loop idle benchmark is not grid-shaped (no seeds/schedulers to
// sweep), so it calls the campaign's parallel_for directly: one index per
// function, results printed in catalog order regardless of completion order.
#include <algorithm>

#include "bench_common.h"

using namespace whisk;

int main() {
  const auto cat = workload::sebs_catalog();
  std::printf(
      "Table I — SeBS functions on an idle node (50 calls each, ms)\n"
      "Simulated value with the paper's measurement in parentheses.\n\n");

  std::vector<std::vector<double>> responses(cat.size());
  util::ThreadPool::parallel_for(
      cat.size(), bench::threads(), [&](std::size_t i, int /*worker*/) {
        responses[i] = experiments::run_idle_function_benchmark(
            cat, cat.specs()[i].id, 50, /*seed=*/7);
      });

  util::Table table({"function", "5th perc.", "median", "95th perc."});
  for (std::size_t i = 0; i < cat.size(); ++i) {
    const auto& spec = cat.specs()[i];
    std::vector<double> ms;
    ms.reserve(responses[i].size());
    for (double r : responses[i]) ms.push_back(r * 1000.0);
    std::sort(ms.begin(), ms.end());
    table.add_row(
        {spec.name,
         bench::with_ref(util::percentile_sorted(ms, 5.0), spec.p5_ms, 0),
         bench::with_ref(util::percentile_sorted(ms, 50.0), spec.median_ms, 0),
         bench::with_ref(util::percentile_sorted(ms, 95.0), spec.p95_ms, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
