// End-to-end reproduction tests: assert the *shapes* of the paper's
// results (who wins, rough factors, crossovers) rather than absolute
// numbers. These are the contract of the whole library; the bench binaries
// and tools/calibrate print the full measured-vs-paper record.
//
// To keep test time low the shapes are checked with 2 seeds; the bench
// binaries run the full 5-seed versions. The sweeps run through
// run_campaign on 2 worker threads — the same numbers as the serial path
// (campaign determinism contract), plus free coverage of the pool.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "experiments/campaign.h"
#include "experiments/paper_data.h"
#include "experiments/runner.h"
#include "util/stats.h"

namespace whisk::experiments {
namespace {

class Reproduction : public ::testing::Test {
 protected:
  static constexpr int kReps = 2;

  static CampaignSpec grid(std::vector<SchedulerSpec> schedulers,
                           const std::string& scenario, int cores,
                           std::vector<int> nodes = {1}) {
    CampaignSpec g;
    g.schedulers = std::move(schedulers);
    g.scenarios = {workload::ScenarioSpec::parse(scenario)};
    g.cores = {cores};
    g.nodes = std::move(nodes);
    g.seeds = {0, 1};  // kReps
    return g;
  }

  CampaignResult run(const CampaignSpec& g, bool records = false) {
    CampaignOptions opts;
    opts.threads = 2;
    opts.retain_records = records;
    return run_campaign(g, cat_, opts);
  }

  util::Summary responses(int cores, int intensity,
                          const SchedulerSpec& sched) {
    const auto result = run(
        grid({sched}, "uniform?intensity=" + std::to_string(intensity),
             cores));
    return util::summarize(pooled_responses(result.group(0)));
  }

  static SchedulerSpec ours(std::string_view policy) {
    return SchedulerSpec{"ours", std::string(policy)};
  }
  static SchedulerSpec baseline() { return SchedulerSpec{"baseline"}; }

  workload::FunctionCatalog cat_ = workload::sebs_catalog();
};

TEST_F(Reproduction, Table1_IdleMediansTrackPaper) {
  for (const auto& spec : cat_.specs()) {
    const auto rs = run_idle_function_benchmark(cat_, spec.id, 50, 7);
    const double median_ms = util::percentile(rs, 50.0) * 1000.0;
    // Within 20% + 5 ms of the paper's client-side median.
    EXPECT_NEAR(median_ms, spec.median_ms, 0.2 * spec.median_ms + 5.0)
        << spec.name;
  }
}

TEST_F(Reproduction, Fig2a_BaselineColdStartsScaleWithIntensityNotMemory) {
  auto colds = [&](int intensity, double memory_mb) {
    const auto cfg = ExperimentSpec()
                         .cores(10)
                         .scenario("uniform?intensity=" +
                                   std::to_string(intensity))
                         .memory_mb(memory_mb)
                         .scheduler(baseline());
    const auto run = run_experiment(cfg, cat_);
    return run.stats.cold_starts;
  };
  const auto at32 = colds(120, 32.0 * 1024.0);
  const auto at128 = colds(120, 128.0 * 1024.0);
  // Paper: >1100 of 1320 requests cold at intensity 120, with almost no
  // dependency on memory.
  EXPECT_GT(at32, 800u);
  EXPECT_GT(at128, 800u);
  const double rel = std::abs(static_cast<double>(at32) -
                              static_cast<double>(at128)) /
                     static_cast<double>(at32);
  EXPECT_LT(rel, 0.35) << "memory size barely matters for the baseline";
  // Intensity matters a lot.
  EXPECT_GT(colds(120, 32.0 * 1024.0), colds(60, 32.0 * 1024.0));
}

TEST_F(Reproduction, Fig2b_OurColdStartsVanishWithMemory) {
  auto colds = [&](double memory_mb) {
    const auto cfg = ExperimentSpec()
                         .cores(10)
                         .scenario("uniform?intensity=120")
                         .memory_mb(memory_mb)
                         .scheduler(ours("fifo"));
    const auto run = run_experiment(cfg, cat_);
    return run.stats.cold_starts;
  };
  const auto tiny = colds(2.0 * 1024.0);
  const auto small = colds(8.0 * 1024.0);
  const auto ample = colds(32.0 * 1024.0);
  const auto huge = colds(128.0 * 1024.0);
  EXPECT_GT(tiny, 100u) << "2 GiB thrashes";
  EXPECT_GT(tiny, small) << "cold starts fall as memory grows";
  EXPECT_LT(ample, 20u) << "32 GiB: warm-up set never evicted";
  EXPECT_EQ(huge, ample) << "beyond 32 GiB nothing changes";
}

TEST_F(Reproduction, Table2_CompletionRatioCrossesOneWithCores) {
  auto ratio = [&](int cores, int intensity) {
    const auto result = run(
        grid({ours("fifo"), baseline()},
             "uniform?intensity=" + std::to_string(intensity), cores));
    const auto fifo = result.group(0);
    const auto base = result.group(1);
    double sum = 0.0;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      sum += fifo[i].max_completion / base[i].max_completion;
    }
    return sum / static_cast<double>(fifo.size());
  };
  // Paper Table II: FIFO slower than baseline at 5 cores / intensity 30
  // (1.14-1.20), much faster at 20 cores (0.55-0.78).
  EXPECT_GT(ratio(5, 30), 1.0);
  EXPECT_LT(ratio(20, 30), 0.85);
  EXPECT_LT(ratio(20, 120), 0.75);
}

TEST_F(Reproduction, Fig3_SeptAndFcBeatFifoSeveralFold) {
  // Paper Sec. VII-A: average relative response-time improvement of SEPT
  // over FIFO is 3.59 and of FC is 4.10. Require at least 2x at the
  // intermediate configuration.
  const auto fifo = responses(10, 60, ours("fifo"));
  const auto sept = responses(10, 60, ours("sept"));
  const auto fc = responses(10, 60, ours("fc"));
  EXPECT_GT(fifo.mean / sept.mean, 2.0);
  EXPECT_GT(fifo.mean / fc.mean, 2.0);
  // Medians collapse even harder (paper: 95.9x at intensity 60).
  EXPECT_GT(fifo.p50 / sept.p50, 10.0);
}

TEST_F(Reproduction, Fig3_EectAndRectSitBetweenFifoAndSept) {
  const auto fifo = responses(10, 60, ours("fifo"));
  const auto eect = responses(10, 60, ours("eect"));
  const auto rect = responses(10, 60, ours("rect"));
  const auto sept = responses(10, 60, ours("sept"));
  EXPECT_LT(eect.mean, fifo.mean);
  EXPECT_LT(rect.mean, fifo.mean);
  EXPECT_GT(eect.mean, sept.mean);
  EXPECT_GT(rect.mean, sept.mean);
}

TEST_F(Reproduction, Fig3_BaselineBeatsOurFifoAtLowScaleOnly) {
  // The paper's improvement factor at 10 cores/intensity 30 is 0.41 (the
  // baseline is better); at 20 cores the baseline loses (factor 1.79-1.98).
  const auto base_low = responses(10, 30, baseline());
  const auto fifo_low = responses(10, 30, ours("fifo"));
  EXPECT_LT(base_low.mean, fifo_low.mean);

  const auto base_high = responses(20, 40, baseline());
  const auto fifo_high = responses(20, 40, ours("fifo"));
  EXPECT_GT(base_high.mean / fifo_high.mean, 1.2);
}

TEST_F(Reproduction, Fig3_FifoImprovementGrowsWithIntensity) {
  // Paper Sec. VII-B: with 20 CPUs the baseline-to-FIFO ratio stays ~1.8-2
  // across intensities; the absolute gap widens.
  const auto base40 = responses(20, 40, baseline());
  const auto fifo40 = responses(20, 40, ours("fifo"));
  const auto base120 = responses(20, 120, baseline());
  const auto fifo120 = responses(20, 120, ours("fifo"));
  EXPECT_GT(base40.mean, fifo40.mean);
  EXPECT_GT(base120.mean, fifo120.mean);
  EXPECT_GT(base120.mean - fifo120.mean, base40.mean - fifo40.mean);
}

TEST_F(Reproduction, Fig4_StretchImprovementIsLargerThanResponse) {
  // Paper: stretch improvements (14.9x SEPT, 18x FC vs FIFO) exceed the
  // response improvements because short calls dominate the stretch.
  auto stretch = [&](const SchedulerSpec& sched) {
    const auto result = run(grid({sched}, "uniform?intensity=60", 10));
    return util::summarize(pooled_stretches(result.group(0)));
  };
  const auto fifo = stretch(ours("fifo"));
  const auto sept = stretch(ours("sept"));
  EXPECT_GT(fifo.mean / sept.mean, 5.0);
}

TEST_F(Reproduction, Fig4_SeptKeepsShortCallsNearIdleLatency) {
  // Under SEPT the median response stays near ~1-3 s even under heavy
  // overload (paper: 1.07 s at 10 cores / intensity 60).
  const auto sept = responses(10, 60, ours("sept"));
  EXPECT_LT(sept.p50, 6.0);
}

TEST_F(Reproduction, Fig5_FcFairToRareLongFunction) {
  const auto dna = *cat_.find("dna-visualisation");
  auto dna_stretch = [&](std::string_view policy) {
    const auto result =
        run(grid({SchedulerSpec{"ours", std::string(policy)}},
                 "fairness?intensity=90&rare-function=dna-visualisation&"
                 "rare-calls=10",
                 10),
            /*records=*/true);
    std::vector<double> pool;
    for (const auto& cell : result.group(0)) {
      for (const auto& rec : cell.records) {
        if (rec.function == dna) {
          pool.push_back(rec.response() / cat_.reference_median(dna));
        }
      }
    }
    return util::summarize(pool);
  };
  const auto sept = dna_stretch("sept");
  const auto fc = dna_stretch("fc");
  // FC treats the rare long function much better than SEPT (paper: avg
  // stretch 5.3 -> 2.1, median 5.2 -> 1.6). Our reproduction preserves the
  // direction and a several-fold margin; the absolute median lands higher
  // than the paper's 1.6 (bench_fig5_fairness prints both).
  EXPECT_LT(fc.mean, 0.8 * sept.mean);
  EXPECT_LT(fc.p50, 0.8 * sept.p50);
  EXPECT_LT(fc.p50, 15.0);
}

TEST_F(Reproduction, Fig6_FcOnThreeNodesBeatsBaselineOnFour) {
  // One campaign over both schedulers and every fleet size.
  const auto result = run(grid({baseline(), ours("fc")},
                               "fixed-total?total=2376", 18, {4, 3, 2}));
  auto multi = [&](std::size_t sched_i, std::size_t nodes_i) {
    return util::summarize(pooled_responses(result.group(
        result.spec.group_index({.scheduler_i = sched_i, .nodes_i = nodes_i}))));
  };
  const auto base4 = multi(0, 0);
  const auto fc3 = multi(1, 1);
  // The paper's headline: every reported statistic improves.
  EXPECT_LT(fc3.mean, base4.mean);
  EXPECT_LT(fc3.p75, base4.p75);
  EXPECT_LT(fc3.p95, base4.p95);

  // And FC-2 remains in the baseline-4 ballpark on average while clearly
  // winning on p75 (paper: 58% / 93% reductions; our baseline-4 is less
  // melted than the paper's, so the average margin is thinner).
  const auto fc2 = multi(1, 2);
  EXPECT_LT(fc2.mean, base4.mean * 1.25);
  EXPECT_LT(fc2.p75, base4.p75);
}

TEST_F(Reproduction, MultiNode_BaselineScalesWithNodes) {
  const auto result = run(
      grid({baseline()}, "fixed-total?total=1320", 10, {1, 2, 4}));
  auto avg = [&](std::size_t nodes_i) {
    return util::summarize(pooled_responses(result.group(nodes_i))).mean;
  };
  // More machines always help the baseline (Table V).
  EXPECT_GT(avg(0), avg(1));
  EXPECT_GT(avg(1), avg(2));
}

}  // namespace
}  // namespace whisk::experiments
