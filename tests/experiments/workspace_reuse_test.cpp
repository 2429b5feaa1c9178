// The CellWorkspace reuse contract (the campaign hot path): a workspace
// that has already run arbitrary other cells — warm engine slabs, recycled
// collector columns, a populated scenario cache — produces byte-identical
// records to a fresh construction of everything, for every subsystem at
// once (bounded autoscaled fleet, resilience policies, crash faults,
// workflow DAGs). The campaign-level corollary: per-worker workspaces keep
// cells_csv/cells_jsonl and the streamed record CSV/JSONL invariant under
// the thread count on the same chaos grid, and on a grid whose cluster
// items size the scenario differently.
#include "experiments/workspace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "experiments/campaign.h"
#include "experiments/runner.h"
#include "metrics/csv.h"
#include "metrics/sink.h"
#include "util/thread_pool.h"

namespace whisk::experiments {
namespace {

class WorkspaceReuseTest : public ::testing::Test {
 protected:
  // Every subsystem on one grid: an autoscaled cost-metered fleet with a
  // resilience policy, with and without crash faults, with and without a
  // workflow DAG — 2x2x2x2 = 16 quick cells.
  static CampaignSpec chaos_grid() {
    return CampaignSpec::parse(
        "schedulers=ours/sept,baseline/fifo; "
        "scenarios=uniform?intensity=30; seeds=0..1; "
        "clusters=node:3?cost-per-hour=0.48&min-nodes=2&max-nodes=5"
        "|resilience=timeout-s=8&max-attempts=3&breaker-failures=3&"
        "max-queue=64; "
        "faults=none,crash-restart?mtbf-s=60&mttr-s=10; "
        "workflows=none,chain?stages=3");
  }

  // The plain paper-style grid, for shape changes between reuses.
  static CampaignSpec plain_grid() {
    return CampaignSpec::parse(
        "schedulers=baseline/fifo,ours/sept; "
        "scenarios=uniform?intensity=30,fixed-total?total=110; "
        "seeds=0..1; cores=5");
  }

  // Two cluster items of different sizes: the scenario is sized by the
  // deployment's total cores, so the node:4 cells run twice the node:2
  // cells' calls and must not share their memoized scenario.
  static CampaignSpec sized_clusters_grid() {
    return CampaignSpec::parse(
        "schedulers=ours/sept; scenarios=uniform?intensity=30; seeds=0..1; "
        "cores=5; clusters=node:2,node:4");
  }

  // Run every cell of `spec` through the shared long-lived workspace and
  // through the fresh-construction path, and require record-level equality.
  void expect_reuse_matches_fresh(CellWorkspace& ws,
                                  const CampaignSpec& spec) {
    for (std::size_t i = 0; i < spec.size(); ++i) {
      const auto cell = spec.cell(i);
      const auto reused = ws.run(cell.spec, cat_);
      // run_experiment constructs a single-use workspace: cold engine,
      // cold collector, scenario generated on first use.
      const auto fresh = run_experiment(cell.spec, cat_);
      EXPECT_EQ(metrics::to_csv(reused.records, cat_),
                metrics::to_csv(fresh.records, cat_))
          << "cell " << i << " of " << spec.size();
      EXPECT_EQ(reused.calls, fresh.calls);
      EXPECT_EQ(reused.responses, fresh.responses);
      EXPECT_EQ(reused.stretches, fresh.stretches);
      EXPECT_DOUBLE_EQ(reused.max_completion, fresh.max_completion);
      EXPECT_EQ(reused.stats.cold_starts, fresh.stats.cold_starts);
      EXPECT_EQ(reused.resubmissions, fresh.resubmissions);
      EXPECT_EQ(reused.faults_injected, fresh.faults_injected);
      EXPECT_EQ(reused.retries, fresh.retries);
      EXPECT_EQ(reused.shed_calls, fresh.shed_calls);
      EXPECT_EQ(reused.dropped_calls, fresh.dropped_calls);
      EXPECT_EQ(reused.workflows, fresh.workflows);
      EXPECT_DOUBLE_EQ(reused.wf_e2e_p99, fresh.wf_e2e_p99);
      EXPECT_DOUBLE_EQ(reused.cost_usd, fresh.cost_usd);
      EXPECT_EQ(reused.scale_ups, fresh.scale_ups);
      EXPECT_EQ(reused.slo_violations, fresh.slo_violations);
    }
  }

  // Run `spec` as a campaign at several thread counts and require the same
  // bytes from every output.
  void expect_thread_invariant(const CampaignSpec& spec) {
    auto run_at = [&](int threads) {
      CampaignOptions opts;
      opts.threads = threads;
      std::ostringstream csv, jsonl;
      metrics::MetricsPipeline pipeline;
      pipeline.emplace<metrics::CsvSink>(csv, cat_);
      pipeline.emplace<metrics::JsonlSink>(jsonl, cat_);
      opts.pipeline = &pipeline;
      const auto result = run_campaign(spec, cat_, opts);
      // Aggregated per-cell CSV/JSONL plus the streamed full-record
      // CSV/JSONL — every byte the sweep tool can produce.
      return cells_csv(result) + "\n---\n" + cells_jsonl(result) +
             "\n---\n" + csv.str() + "\n---\n" + jsonl.str();
    };
    const std::string at1 = run_at(1);
    ASSERT_FALSE(at1.empty());
    EXPECT_EQ(at1, run_at(2)) << spec.to_string();
    const int hw = util::ThreadPool::hardware_threads();
    if (hw > 2) {
      EXPECT_EQ(at1, run_at(hw)) << spec.to_string();
    }
  }

  workload::FunctionCatalog cat_ = workload::sebs_catalog();
};

TEST_F(WorkspaceReuseTest, ReusedWorkspaceMatchesFreshConstruction) {
  CellWorkspace ws;  // outlives every cell below
  // Chaos cells first (faults, workflows, autoscaler churn the engine and
  // collector hardest), then a different grid shape through the same warm
  // workspace, then the chaos grid again — the second pass runs entirely
  // on scenario-cache hits and well-used slabs.
  expect_reuse_matches_fresh(ws, chaos_grid());
  expect_reuse_matches_fresh(ws, plain_grid());
  expect_reuse_matches_fresh(ws, chaos_grid());
  expect_reuse_matches_fresh(ws, sized_clusters_grid());
}

TEST_F(WorkspaceReuseTest, RecordFreeRunStillCountsCalls) {
  const auto spec = chaos_grid();
  CellWorkspace ws;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto cell = spec.cell(i);
    const auto lean = ws.run(cell.spec, cat_, /*want_records=*/false);
    const auto fresh = run_experiment(cell.spec, cat_);
    EXPECT_TRUE(lean.records.empty()) << "cell " << i;
    EXPECT_EQ(lean.calls, fresh.calls) << "cell " << i;
    EXPECT_EQ(lean.responses, fresh.responses) << "cell " << i;
  }
}

TEST_F(WorkspaceReuseTest, CampaignOutputInvariantUnderThreadCount) {
  for (const auto& spec : {chaos_grid(), sized_clusters_grid()}) {
    expect_thread_invariant(spec);
  }
}

}  // namespace
}  // namespace whisk::experiments
