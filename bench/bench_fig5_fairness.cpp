// Reproduces Fig. 5: the fairness experiment (Sec. VII-D). 10 CPU cores,
// intensity 90; exactly 10 calls of the long, rare dna-visualisation
// function, the rest drawn uniformly from the other functions.
//
// Expected shape: SEPT discriminates against the rare long function, while
// Fair-Choice starts it almost immediately (the paper reports FC cutting
// dna-visualisation's average stretch from 5.3 to 2.1 and median from 5.2
// to 1.6, at the price of a slightly higher stretch for the short,
// often-called graph-bfs: 25.8 vs 22.2).
#include "bench_common.h"

using namespace whisk;

namespace {

util::Summary pooled_stretch_of(std::span<const experiments::CellResult> cells,
                                const workload::FunctionCatalog& cat,
                                workload::FunctionId fn) {
  std::vector<double> pool;
  const double ref = cat.reference_median(fn);
  for (const auto& cell : cells) {
    for (const auto& rec : cell.records) {
      if (rec.function == fn) pool.push_back(rec.response() / ref);
    }
  }
  return util::summarize(pool);
}

}  // namespace

int main() {
  const auto cat = workload::sebs_catalog();
  const int reps = bench::repetitions();
  const auto dna = cat.find("dna-visualisation").value();
  const auto bfs = cat.find("graph-bfs").value();
  const auto ref = experiments::paper::fig5_reference();

  std::printf(
      "Fig. 5 — fairness of FC (10 cores, intensity 90, 10 calls of "
      "dna-visualisation) — %d seeds pooled\n\n",
      reps);

  const auto grid = bench::paper_scheduler_grid(
      "fairness?intensity=90&rare-function=dna-visualisation&rare-calls=10",
      /*cores=*/10, reps);
  auto opts = bench::campaign_options();
  opts.retain_records = true;  // per-function pooling below
  const auto result = experiments::run_campaign(grid, cat, opts);

  util::Table table({"scheduler", "all: avg S", "all: p50 S", "dna: avg S",
                     "dna: p50 S", "bfs: avg S", "bfs: p50 S"});
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const auto cells = result.group(g);
    const auto all = result.group_summary(g).stretch;
    const auto dna_s = pooled_stretch_of(cells, cat, dna);
    const auto bfs_s = pooled_stretch_of(cells, cat, bfs);
    table.add_row({experiments::paper_schedulers()[g].label(),
                   util::fmt(all.mean, 1), util::fmt(all.p50, 1),
                   util::fmt(dna_s.mean, 1), util::fmt(dna_s.p50, 1),
                   util::fmt(bfs_s.mean, 1), util::fmt(bfs_s.p50, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper reference: dna avg stretch %.1f (SEPT) -> %.1f (FC); dna "
      "median %.1f -> %.1f; graph-bfs avg %.1f (SEPT) vs %.1f (FC).\n",
      ref.sept_dna_avg_stretch, ref.fc_dna_avg_stretch,
      ref.sept_dna_p50_stretch, ref.fc_dna_p50_stretch,
      ref.sept_bfs_avg_stretch, ref.fc_bfs_avg_stretch);
  return 0;
}
