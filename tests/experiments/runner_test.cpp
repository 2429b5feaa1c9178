#include "experiments/runner.h"

#include <gtest/gtest.h>

#include "experiments/paper_data.h"

namespace whisk::experiments {
namespace {

class RunnerTest : public ::testing::Test {
 protected:
  workload::FunctionCatalog cat_ = workload::sebs_catalog();
};

TEST_F(RunnerTest, SchedulerLabels) {
  EXPECT_EQ((SchedulerSpec{"baseline", "fifo"}).label(), "baseline");
  EXPECT_EQ((SchedulerSpec{"ours", "sept"}).label(), "SEPT");
  EXPECT_EQ(SchedulerSpec::parse("ours/sjf-aging").label(), "SJF-AGING");
}

TEST_F(RunnerTest, PaperSchedulersInFigureOrder) {
  const auto& all = paper_schedulers();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].label(), "baseline");
  EXPECT_EQ(all[1].label(), "FIFO");
  EXPECT_EQ(all[2].label(), "SEPT");
  EXPECT_EQ(all[3].label(), "EECT");
  EXPECT_EQ(all[4].label(), "RECT");
  EXPECT_EQ(all[5].label(), "FC");
}

TEST_F(RunnerTest, RunProducesOneRecordPerRequest) {
  const auto cfg = ExperimentSpec().cores(5).scenario("uniform?intensity=30");
  const auto run = run_experiment(cfg, cat_);
  EXPECT_EQ(run.records.size(), 165u);
  EXPECT_EQ(run.responses.size(), 165u);
  EXPECT_EQ(run.stretches.size(), 165u);
  EXPECT_GT(run.max_completion, 60.0);
}

TEST_F(RunnerTest, SameSeedIsReproducible) {
  const auto cfg =
      ExperimentSpec().cores(5).scenario("uniform?intensity=30").seed(3);
  const auto a = run_experiment(cfg, cat_);
  const auto b = run_experiment(cfg, cat_);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.responses[i], b.responses[i]);
  }
}

TEST_F(RunnerTest, SchedulersShareTheCallSequencePerSeed) {
  auto cfg = ExperimentSpec().cores(5).scenario("uniform?intensity=30").seed(2);
  cfg.scheduler("ours/fifo");
  const auto fifo = run_experiment(cfg, cat_);
  cfg.scheduler("ours/sept");
  const auto sept = run_experiment(cfg, cat_);
  // Identical releases and functions per call id (the paper compares
  // schedulers on the same 5 sequences).
  ASSERT_EQ(fifo.records.size(), sept.records.size());
  for (std::size_t i = 0; i < fifo.records.size(); ++i) {
    const auto& a = fifo.records[i];
    // Records arrive in completion order; match by id.
    bool found = false;
    for (const auto& b : sept.records) {
      if (b.id == a.id) {
        EXPECT_EQ(b.function, a.function);
        EXPECT_DOUBLE_EQ(b.release, a.release);
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
  }
}

TEST_F(RunnerTest, RepetitionsUseDistinctSeeds) {
  const auto cfg = ExperimentSpec().cores(5).scenario("uniform?intensity=30");
  const auto reps = run_repetitions(cfg, cat_, 3);
  ASSERT_EQ(reps.size(), 3u);
  EXPECT_NE(reps[0].responses, reps[1].responses);
  EXPECT_NE(reps[1].responses, reps[2].responses);
}

TEST_F(RunnerTest, RepetitionsDeriveSeedsFromTheBaseSeed) {
  // The old implementation clobbered the caller's seed with 0..reps-1;
  // the contract is now spec.seed() + r.
  auto cfg = ExperimentSpec().cores(5).scenario("uniform?intensity=30").seed(3);
  const auto reps = run_repetitions(cfg, cat_, 2);
  ASSERT_EQ(reps.size(), 2u);
  cfg.seed(3);
  const auto at3 = run_experiment(cfg, cat_);
  cfg.seed(4);
  const auto at4 = run_experiment(cfg, cat_);
  EXPECT_EQ(reps[0].responses, at3.responses);
  EXPECT_EQ(reps[1].responses, at4.responses);
}

TEST_F(RunnerTest, NodeParamOverridesApply) {
  const auto cfg = ExperimentSpec()
                       .cores(7)
                       .memory_mb(1234.0)
                       .with_override("history_window", 5)
                       .with_override("fc_window", 30.0)
                       .with_override("context_switch_beta", 0.7)
                       .with_override("strain_per_container", 0.02)
                       .with_override("dispatch_daemon_gate", 9)
                       .with_override("our_post_factor_loaded", 0.1)
                       .with_override("sjf_aging_weight", 0.5);
  const auto p = cfg.node_params();
  EXPECT_EQ(p.cores, 7);
  EXPECT_DOUBLE_EQ(p.memory_limit_mb, 1234.0);
  EXPECT_EQ(p.history_window, 5u);
  EXPECT_DOUBLE_EQ(p.policy.fc_window, 30.0);
  EXPECT_DOUBLE_EQ(p.context_switch_beta, 0.7);
  EXPECT_DOUBLE_EQ(p.strain_per_container, 0.02);
  EXPECT_EQ(p.dispatch_daemon_gate, 9);
  EXPECT_DOUBLE_EQ(p.our_post_factor_loaded, 0.1);
  EXPECT_DOUBLE_EQ(p.policy.sjf_aging_weight, 0.5);
}

TEST_F(RunnerTest, DefaultsPreservedWithoutOverrides) {
  const auto p = ExperimentSpec().node_params();
  const node::NodeParams ref;
  EXPECT_EQ(p.history_window, ref.history_window);
  EXPECT_DOUBLE_EQ(p.policy.fc_window, ref.policy.fc_window);
  EXPECT_DOUBLE_EQ(p.context_switch_beta, ref.context_switch_beta);
  EXPECT_EQ(p.dispatch_daemon_gate, ref.dispatch_daemon_gate);
}

TEST_F(RunnerTest, OverridesAreCaseInsensitiveAndEnumerable) {
  const auto cfg = ExperimentSpec().with_override("History_Window", 4);
  EXPECT_EQ(cfg.overrides().count("history_window"), 1u);
  EXPECT_EQ(cfg.node_params().history_window, 4u);
  EXPECT_FALSE(ExperimentSpec::override_names().empty());
}

TEST_F(RunnerTest, OutOfRangeOverridesAreRejected) {
  // The old sentinel API treated negatives as "keep default"; the named map
  // refuses them outright instead of casting them into garbage.
  EXPECT_DEATH((void)ExperimentSpec().with_override("history_window", -1.0),
               "out of range.*whole number >= 1");
  EXPECT_DEATH((void)ExperimentSpec().with_override("history_window", 2.5),
               "out of range");
  EXPECT_DEATH((void)ExperimentSpec().with_override("fc_window", 0.0),
               "out of range.*value > 0");
  EXPECT_DEATH(
      (void)ExperimentSpec().with_override("strain_per_container", -0.1),
      "out of range.*value >= 0");
  // Boundary values the old guards allowed stay allowed.
  EXPECT_DOUBLE_EQ(ExperimentSpec()
                       .with_override("fc_window", 0.5)
                       .node_params()
                       .policy.fc_window,
                   0.5);
  EXPECT_DOUBLE_EQ(ExperimentSpec()
                       .with_override("context_switch_beta", 0.0)
                       .node_params()
                       .context_switch_beta,
                   0.0);
}

TEST_F(RunnerTest, UnknownOverrideDiesListingValidNames) {
  EXPECT_DEATH((void)ExperimentSpec().with_override("warp_factor", 9.0),
               "unknown experiment override \\\"warp_factor\\\".*"
               "history_window");
}

TEST_F(RunnerTest, FairnessScenarioHasRareFunction) {
  const auto cfg = ExperimentSpec().cores(5).scenario(
      "fairness?rare-function=dna-visualisation&rare-calls=4");
  const auto run = run_experiment(cfg, cat_);
  const auto dna = *cat_.find("dna-visualisation");
  int rare = 0;
  for (const auto& rec : run.records) {
    if (rec.function == dna) ++rare;
  }
  EXPECT_EQ(rare, 4);
}

TEST_F(RunnerTest, MultiNodeFixedTotal) {
  const auto cfg =
      ExperimentSpec().cores(5).nodes(2).scenario("fixed-total?total=110");
  const auto run = run_experiment(cfg, cat_);
  EXPECT_EQ(run.records.size(), 110u);
}

TEST_F(RunnerTest, NodesIsAHomogeneousCluster) {
  EXPECT_EQ(ExperimentSpec().cluster(), cluster::ClusterSpec::homogeneous(1));
  EXPECT_EQ(ExperimentSpec().nodes(3).cluster(),
            cluster::ClusterSpec::homogeneous(3));
  EXPECT_EQ(ExperimentSpec().cluster("big:2?cores=4,small:1").nodes(), 3);
  // The last deployment setter wins; neither spelling conflicts.
  EXPECT_EQ(ExperimentSpec().nodes(3).cluster("node:2").nodes(), 2);
  EXPECT_EQ(ExperimentSpec().cluster("node:2").nodes(3).nodes(), 3);
  // Scenarios size themselves by cores * nodes, the same for both
  // spellings of one deployment.
  const auto a = ExperimentSpec().nodes(2).cores(5).scenario_context(cat_);
  const auto b =
      ExperimentSpec().cluster("node:2").cores(5).scenario_context(cat_);
  EXPECT_EQ(a.cores * a.nodes, 10);
  EXPECT_EQ(b.cores * b.nodes, a.cores * a.nodes);
}

TEST_F(RunnerTest, RateDrivenScenariosRunEndToEnd) {
  // The new arrival processes work through the same runner surface as the
  // paper scenarios, with no code changes outside the spec string.
  for (const char* scenario :
       {"poisson?rate=8&mix=random", "bursty?rate-on=30&rate-off=2",
        "diurnal?rate=8&amplitude=0.5"}) {
    const auto cfg = ExperimentSpec().cores(5).seed(1).scenario(scenario);
    const auto run = run_experiment(cfg, cat_);
    EXPECT_GT(run.records.size(), 0u) << scenario;
    EXPECT_EQ(run.records.size(), run.responses.size()) << scenario;
  }
}

TEST_F(RunnerTest, ScenarioSpecSurvivesTheBuilderRoundTrip) {
  const auto cfg = ExperimentSpec().scenario("FIXED?total=110");
  EXPECT_EQ(cfg.scenario().to_string(), "fixed-total?total=110");
}

TEST_F(RunnerTest, IdleBenchmarkHasRequestedCalls) {
  const auto rs = run_idle_function_benchmark(
      cat_, *cat_.find("graph-bfs"), 20, 1);
  EXPECT_EQ(rs.size(), 20u);
  for (double r : rs) {
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 0.1) << "idle graph-bfs responds in tens of milliseconds";
  }
}

TEST(PaperData, TablesAreComplete) {
  EXPECT_EQ(paper::table3().size(), 90u);  // 3 cores x 5 intensities x 6
  EXPECT_EQ(paper::table2().size(), 15u);  // 3 cores x 5 intensities
  EXPECT_EQ(paper::table5().size(), 16u);  // 2 series x 4 fleets x 2
}

TEST(PaperData, LookupsWork) {
  const auto row = paper::find_single_node(10, 60, "SEPT");
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->r_avg, 25.14);
  EXPECT_FALSE(paper::find_single_node(10, 60, "LIFO").has_value());
  EXPECT_FALSE(paper::find_single_node(15, 60, "SEPT").has_value());

  const auto ratio = paper::find_completion_ratio(20, 120);
  ASSERT_TRUE(ratio.has_value());
  EXPECT_DOUBLE_EQ(ratio->ratio_lo, 0.55);

  const auto multi = paper::find_multi_node(3, 18, "FC");
  ASSERT_TRUE(multi.has_value());
  EXPECT_DOUBLE_EQ(multi->r_avg, 68.62);
}

TEST(PaperData, BaselineDegradesWithIntensityInPaper) {
  // Internal consistency of the transcription: the paper's baseline average
  // response grows monotonically with intensity at every core count.
  for (int cores : {5, 10, 20}) {
    double prev = 0.0;
    for (int v : {30, 40, 60, 90, 120}) {
      const auto row = paper::find_single_node(cores, v, "baseline");
      ASSERT_TRUE(row.has_value());
      EXPECT_GT(row->r_avg, prev);
      prev = row->r_avg;
    }
  }
}

}  // namespace
}  // namespace whisk::experiments
