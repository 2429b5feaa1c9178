// Reproduces Fig. 3 / the R(i) columns of Table III: response-time
// statistics for the six schedulers over the (cores, intensity) grid.
// Pass --appendix to extend the intensity sweep to 90 and 120 and to
// include the 5-core row (the paper's on-line appendix).
//
// Expected shapes: our FIFO beats the baseline at 20 cores and loses at
// low cores/intensity; SEPT and FC give the lowest average and median
// response; EECT and RECT sit between FIFO and SEPT.
#include <cstring>

#include "bench_common.h"

using namespace whisk;

int main(int argc, char** argv) {
  const bool appendix = argc > 1 && std::strcmp(argv[1], "--appendix") == 0;
  const auto cat = workload::sebs_catalog();
  const int reps = bench::repetitions();
  const std::vector<int> core_counts =
      appendix ? std::vector<int>{5, 10, 20} : std::vector<int>{10, 20};
  const std::vector<int> intensities = appendix
                                           ? std::vector<int>{30, 40, 60, 90,
                                                              120}
                                           : std::vector<int>{30, 40, 60};

  std::printf(
      "Fig. 3 / Table III (response time R(i), seconds) — %d seeds pooled\n"
      "Simulated value with the paper's measurement in parentheses.\n\n",
      reps);

  for (int cores : core_counts) {
    for (int v : intensities) {
      const auto grid = bench::paper_scheduler_grid(
          "uniform?intensity=" + std::to_string(v), cores, reps);
      const auto result =
          experiments::run_campaign(grid, cat, bench::campaign_options());

      std::printf("-- %d CPU cores, intensity %d --\n", cores, v);
      util::Table table(
          {"scheduler", "avg", "p50", "p75", "p95", "p99", "max c(i)"});
      for (std::size_t g = 0; g < result.group_count(); ++g) {
        const auto s = result.group_summary(g);
        const std::string label = experiments::paper_schedulers()[g].label();
        const auto ref =
            experiments::paper::find_single_node(cores, v, label);
        table.add_row(
            {label,
             ref ? bench::with_ref(s.response.mean, ref->r_avg)
                 : util::fmt(s.response.mean),
             ref ? bench::with_ref(s.response.p50, ref->r_p50)
                 : util::fmt(s.response.p50),
             util::fmt(s.response.p75),
             ref ? bench::with_ref(s.response.p95, ref->r_p95)
                 : util::fmt(s.response.p95),
             util::fmt(s.response.p99),
             ref ? bench::with_ref(s.max_completion, ref->max_c)
                 : util::fmt(s.max_completion)});
      }
      std::printf("%s\n", table.to_string().c_str());
    }
  }
  return 0;
}
