// Reproduces Fig. 4 / the S(i) columns of Table III: stretch statistics
// (response time divided by the function's idle-system median, Sec. V-A)
// for the six schedulers over the (cores, intensity) grid. Pass --appendix
// for the extended grid.
//
// Expected shapes: SEPT/FC cut the average stretch by an order of magnitude
// versus FIFO (short calls stop waiting behind long ones); stretch can be
// below 1 because the reference is a client-side median.
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
      "Fig. 4 / Table III (stretch S(i)) — %d seeds pooled\n"
      "Simulated value with the paper's measurement in parentheses.\n\n",
      reps);

  for (int cores : core_counts) {
    for (int v : intensities) {
      const auto grid = bench::paper_scheduler_grid(
          "uniform?intensity=" + std::to_string(v), cores, reps);
      const auto result =
          experiments::run_campaign(grid, cat, bench::campaign_options());

      std::printf("-- %d CPU cores, intensity %d --\n", cores, v);
      util::Table table({"scheduler", "avg", "p50", "p75", "p95", "p99"});
      for (std::size_t g = 0; g < result.group_count(); ++g) {
        const auto s = result.group_summary(g);
        const std::string label = experiments::paper_schedulers()[g].label();
        const auto ref =
            experiments::paper::find_single_node(cores, v, label);
        table.add_row({label,
                       ref ? bench::with_ref(s.stretch.mean, ref->s_avg, 1)
                           : util::fmt(s.stretch.mean, 1),
                       util::fmt(s.stretch.p50, 1),
                       util::fmt(s.stretch.p75, 1),
                       util::fmt(s.stretch.p95, 1),
                       util::fmt(s.stretch.p99, 1)});
      }
      std::printf("%s\n", table.to_string().c_str());
    }
  }
  return 0;
}
