// The distributed campaign contract, end to end over fork-mode workers:
// merged cells CSV/JSONL byte-identical to a single-process run at any
// worker count on a grid that exercises every subsystem at once
// (autoscaled cost-metered fleet, resilience policy, crash faults,
// workflow DAGs); per-group summaries bit-exact across the wire and equal
// to the pooled in-process samples; empty shards tolerated when workers
// outnumber groups; a worker SIGKILLed mid-shard re-run transparently
// with the merge unchanged; and the offline merge of separate `--shard i/n`
// runs' cells files, empty shards included.
#include "experiments/distributed.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "experiments/campaign.h"
#include "util/stats.h"

namespace whisk::experiments {
namespace {

class DistributedCampaignTest : public ::testing::Test {
 protected:
  // Every subsystem on one grid: 8 groups (2 autoscalers x 2 fault
  // regimes x 2 workflow shapes) x 2 seeds = 16 cells.
  static CampaignSpec chaos_grid() {
    return CampaignSpec::parse(
        "schedulers=ours/sept; "
        "scenarios=uniform?intensity=30; seeds=0..1; "
        "clusters=node:3?cost-per-hour=0.48&min-nodes=2&max-nodes=5"
        "|resilience=timeout-s=8&max-attempts=3; "
        "autoscalers=none,target-util?tick-s=1&cooldown-s=1; "
        "faults=none,crash-restart?mtbf-s=60&mttr-s=10; "
        "workflows=none,chain?stages=3");
  }

  // The single-process reference run the merged output must reproduce.
  CampaignResult reference_run() {
    CampaignOptions opts;
    opts.threads = 1;
    return run_campaign(chaos_grid(), cat_, opts);
  }

  workload::FunctionCatalog cat_ = workload::sebs_catalog();
};

TEST_F(DistributedCampaignTest, MergedOutputByteIdenticalAtAnyWorkerCount) {
  const CampaignResult single = reference_run();
  const std::string single_csv = cells_csv(single);
  const std::string single_jsonl = cells_jsonl(single);

  for (const int workers : {1, 2, 4}) {
    DistributedOptions opts;
    opts.workers = workers;
    const DistributedResult dist = run_distributed(chaos_grid(), cat_, opts);
    EXPECT_EQ(dist.cells_csv, single_csv) << workers << " workers";
    EXPECT_EQ(dist.cells_jsonl, single_jsonl) << workers << " workers";
    for (const ShardOutcome& shard : dist.shards) {
      EXPECT_EQ(shard.attempts, 1);
    }
    EXPECT_GT(dist.peak_worker_rss_kb, 0);
  }
}

TEST_F(DistributedCampaignTest, GroupSummariesAreBitExactAcrossTheWire) {
  const CampaignResult single = reference_run();

  DistributedOptions opts;
  opts.workers = 3;
  const DistributedResult dist = run_distributed(chaos_grid(), cat_, opts);

  ASSERT_EQ(dist.groups.size(), single.group_count());
  for (std::size_t g = 0; g < dist.groups.size(); ++g) {
    const GroupSummary& got = dist.groups[g];
    EXPECT_EQ(got.group, g);
    const auto cells = single.group(g);
    std::size_t calls = 0;
    std::size_t ok = 0;
    for (const CellResult& c : cells) {
      calls += c.calls;
      ok += c.ok_calls;
    }
    EXPECT_EQ(got.calls, calls);
    EXPECT_EQ(got.ok_calls, ok);
    EXPECT_EQ(got.cold_starts, total_stats(cells).cold_starts);
    EXPECT_EQ(got.max_completion, max_completion(cells));
    // The worker folds its cells exactly as the driver-side helper would;
    // hexfloat transport keeps every accumulator bit identical.
    const metrics::StreamingSummary want_r = aggregate_responses(cells);
    const metrics::StreamingSummary want_s = aggregate_stretches(cells);
    const util::StreamingStatsState a = got.response.stats.state();
    const util::StreamingStatsState b = want_r.stats.state();
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.m2, b.m2);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(got.response.reservoir.seen(), want_r.reservoir.seen());
    EXPECT_EQ(got.response.reservoir.samples(), want_r.reservoir.samples());
    EXPECT_EQ(got.stretch.stats.state().m2, want_s.stats.state().m2);
    EXPECT_EQ(got.stretch.reservoir.samples(), want_s.reservoir.samples());
  }
}

TEST_F(DistributedCampaignTest, DriverGroupTableMatchesPooledSamples) {
  // One group of 5280 ok calls — more than the default 4096-sample
  // reservoir — so a capacity-bound fold would estimate the quantiles the
  // in-process run computes exactly.
  const CampaignSpec grid = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=uniform?intensity=120; cores=20; "
      "seeds=0..1");
  CampaignOptions sopts;
  sopts.threads = 1;
  const CampaignResult single = run_campaign(grid, cat_, sopts);
  ASSERT_EQ(single.group_count(), 1u);
  const util::Summary want_r =
      util::summarize(pooled_responses(single.group(0)));
  const util::Summary want_s =
      util::summarize(pooled_stretches(single.group(0)));
  ASSERT_GT(want_r.count, 4096u);

  DistributedOptions opts;
  opts.workers = 1;
  const DistributedResult dist = run_distributed(grid, cat_, opts);
  ASSERT_EQ(dist.groups.size(), 1u);
  const auto check = [](const util::Summary& got, const util::Summary& want,
                        const char* what) {
    EXPECT_EQ(got.count, want.count) << what;
    EXPECT_EQ(got.p50, want.p50) << what;
    EXPECT_EQ(got.p75, want.p75) << what;
    EXPECT_EQ(got.p95, want.p95) << what;
    EXPECT_EQ(got.p99, want.p99) << what;
    EXPECT_EQ(got.max, want.max) << what;
    EXPECT_NEAR(got.mean, want.mean, 1e-9 * want.mean) << what;
  };
  check(dist.groups[0].response.summary(), want_r, "response");
  check(dist.groups[0].stretch.summary(), want_s, "stretch");
}

TEST_F(DistributedCampaignTest, MoreWorkersThanGroupsYieldsEmptyShards) {
  const CampaignResult single = reference_run();
  const std::size_t groups = chaos_grid().group_count();

  DistributedOptions opts;
  opts.workers = static_cast<int>(groups) + 3;
  const DistributedResult dist = run_distributed(chaos_grid(), cat_, opts);
  EXPECT_EQ(dist.cells_csv, cells_csv(single));
  EXPECT_EQ(dist.cells_jsonl, cells_jsonl(single));
  std::size_t empty = 0;
  for (const ShardOutcome& shard : dist.shards) {
    if (shard.range.empty()) ++empty;
  }
  EXPECT_EQ(empty, 3UL);
}

TEST_F(DistributedCampaignTest, KilledWorkerIsRerunAndMergeUnchanged) {
  const CampaignResult single = reference_run();

  DistributedOptions opts;
  opts.workers = 2;
  // SIGKILL shard 0's first attempt as soon as its header arrives — the
  // header is written before any cell runs, so the worker dies mid-shard.
  opts.test_kill_shard = 0;
  const DistributedResult dist = run_distributed(chaos_grid(), cat_, opts);

  ASSERT_EQ(dist.shards.size(), 2UL);
  EXPECT_EQ(dist.shards[0].attempts, 2) << "killed shard must be re-spawned";
  EXPECT_EQ(dist.shards[1].attempts, 1);
  EXPECT_EQ(dist.cells_csv, cells_csv(single));
  EXPECT_EQ(dist.cells_jsonl, cells_jsonl(single));
}

TEST_F(DistributedCampaignTest, NoSamplesModeAlsoMergesByteIdentically) {
  CampaignOptions sopts;
  sopts.threads = 1;
  sopts.retain_samples = false;
  sopts.reservoir_capacity = 64;
  const CampaignResult single = run_campaign(chaos_grid(), cat_, sopts);

  DistributedOptions opts;
  opts.workers = 2;
  opts.retain_samples = false;
  opts.reservoir_capacity = 64;
  const DistributedResult dist = run_distributed(chaos_grid(), cat_, opts);
  EXPECT_EQ(dist.cells_csv, cells_csv(single));
  EXPECT_EQ(dist.cells_jsonl, cells_jsonl(single));
}

// The cells CSV and JSONL that separate `--shard i/n` runs of the grid
// write, one part per shard in shard order.
struct ShardFiles {
  std::vector<CellsPart> csv;
  std::vector<CellsPart> jsonl;
};

ShardFiles run_shards(const CampaignSpec& grid,
                      const workload::FunctionCatalog& cat, std::size_t n) {
  ShardFiles out;
  for (std::size_t i = 0; i < n; ++i) {
    CampaignOptions opts;
    opts.threads = 1;
    opts.shard = grid.normalized().shard(i, n);
    const CampaignResult part = run_campaign(grid, cat, opts);
    const std::string name = "part" + std::to_string(i);
    out.csv.push_back({name + ".csv", cells_csv(part)});
    out.jsonl.push_back({name + ".jsonl", cells_jsonl(part)});
  }
  return out;
}

TEST_F(DistributedCampaignTest, MergeOfShardRunsMatchesSingleProcess) {
  const CampaignSpec one_group = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=uniform?intensity=30; seeds=0..1; "
      "cores=5");
  // More shards than groups in both grids, so shard 0 is empty: its CSV is
  // a header row alone and its JSONL is an empty file.
  const std::pair<CampaignSpec, std::size_t> cases[] = {{one_group, 2},
                                                        {chaos_grid(), 9}};
  for (const auto& [grid, n] : cases) {
    ASSERT_LT(grid.group_count(), n);
    CampaignOptions opts;
    opts.threads = 1;
    const CampaignResult single = run_campaign(grid, cat_, opts);
    const ShardFiles parts = run_shards(grid, cat_, n);
    EXPECT_TRUE(parts.jsonl.front().data.empty());

    const CellsMerge csv = merge_cells(parts.csv);
    EXPECT_EQ(csv.diagnostic, "");
    EXPECT_EQ(csv.merged, cells_csv(single)) << n << " shards";
    const CellsMerge jsonl = merge_cells(parts.jsonl);
    EXPECT_EQ(jsonl.diagnostic, "");
    EXPECT_EQ(jsonl.merged, cells_jsonl(single)) << n << " shards";
  }
}

TEST_F(DistributedCampaignTest, MergeRejectsMixedFormatsAndForeignHeaders) {
  const ShardFiles parts = run_shards(chaos_grid(), cat_, 9);
  const auto diagnostic = [](std::vector<CellsPart> mix) {
    const CellsMerge merge = merge_cells(mix);
    EXPECT_EQ(merge.merged, "");
    return merge.diagnostic;
  };

  // A JSONL first part followed by CSV, and the reverse.
  EXPECT_EQ(diagnostic({parts.jsonl[1], parts.csv[2]}),
            "part2.csv is CSV but part1.jsonl is JSONL");
  EXPECT_EQ(diagnostic({parts.csv[1], parts.jsonl[2]}),
            "part2.jsonl is JSONL but part1.csv is CSV");
  // An empty part can only be JSONL: a CSV shard always has its header.
  EXPECT_EQ(diagnostic({parts.jsonl[0], parts.csv[1]}),
            "part0.jsonl is JSONL (empty) but part1.csv is CSV");
  EXPECT_EQ(diagnostic({parts.csv[1], parts.jsonl[0]}),
            "part0.jsonl is JSONL (empty) but part1.csv is CSV");

  CellsPart foreign = parts.csv[2];
  foreign.data.replace(0, foreign.data.find(','), "id");
  EXPECT_EQ(diagnostic({parts.csv[1], foreign}),
            "part2.csv does not share the CSV header of part1.csv");
  EXPECT_EQ(diagnostic({{"torn.csv", "cell,calls"}, parts.csv[1]}),
            "torn.csv has no CSV header row");

  // Only empty parts: a grid slice with no cells, as JSONL.
  const CellsMerge none = merge_cells({parts.jsonl[0], parts.jsonl[0]});
  EXPECT_EQ(none.diagnostic, "");
  EXPECT_EQ(none.merged, "");
}

}  // namespace
}  // namespace whisk::experiments
