// The campaign runner's contracts:
//   * each cell is byte-identical to the serial run_experiment at the same
//     ExperimentSpec (the paper-pin acceptance criterion),
//   * output is invariant under the thread count (1, 2, hardware),
//   * pipeline sinks see cells in index order regardless of schedule,
//   * group pooling reproduces the serial run_repetitions pooling,
//   * cells CSV rows, cells JSONL lines and the record context share one
//     column schema.
#include "experiments/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "expect_summary.h"
#include "experiments/runner.h"
#include "metrics/csv.h"
#include "metrics/sink.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace whisk::experiments {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  // 2 schedulers x 2 scenarios x 2 seeds = 8 quick cells.
  static CampaignSpec small_grid() {
    return CampaignSpec::parse(
        "schedulers=baseline/fifo,ours/sept; "
        "scenarios=uniform?intensity=30,fixed-total?total=110; "
        "seeds=0..1; cores=5");
  }

  workload::FunctionCatalog cat_ = workload::sebs_catalog();
};

TEST_F(CampaignTest, CellsAreByteIdenticalToTheSerialRunner) {
  const auto spec = small_grid();
  CampaignOptions opts;
  opts.threads = 2;
  opts.retain_records = true;
  const auto result = run_campaign(spec, cat_, opts);
  ASSERT_EQ(result.cells.size(), spec.size());

  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto cell = spec.cell(i);
    const auto serial = run_experiment(cell.spec, cat_);
    // The full record CSV — every timestamp of every call — matches the
    // serial path byte for byte.
    EXPECT_EQ(metrics::to_csv(result.cells[i].records, cat_),
              metrics::to_csv(serial.records, cat_))
        << "cell " << i;
    EXPECT_EQ(result.cells[i].responses, serial.responses);
    EXPECT_EQ(result.cells[i].stretches, serial.stretches);
    EXPECT_DOUBLE_EQ(result.cells[i].max_completion, serial.max_completion);
    EXPECT_EQ(result.cells[i].stats.cold_starts, serial.stats.cold_starts);
  }
}

TEST_F(CampaignTest, OutputIsInvariantUnderThreadCount) {
  const auto spec = small_grid();
  auto run_at = [&](int threads) {
    CampaignOptions opts;
    opts.threads = threads;
    std::ostringstream records;
    metrics::MetricsPipeline pipeline;
    pipeline.emplace<metrics::CsvSink>(records, cat_);
    opts.pipeline = &pipeline;
    const auto result = run_campaign(spec, cat_, opts);
    // Aggregated per-cell CSV + the streamed full-record CSV.
    return cells_csv(result) + "\n---\n" + cells_jsonl(result) + "\n---\n" +
           records.str();
  };
  const std::string at1 = run_at(1);
  const std::string at2 = run_at(2);
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1, at2);
  const int hw = util::ThreadPool::hardware_threads();
  if (hw > 2) {
    EXPECT_EQ(at1, run_at(hw));
  }
  EXPECT_EQ(at1, run_at(0)) << "0 = auto thread count";
  EXPECT_EQ(at1, run_at(static_cast<int>(spec.size()) + 3))
      << "more threads than cells";
}

TEST_F(CampaignTest, PipelineSeesCellsInIndexOrder) {
  const auto spec = small_grid();
  CampaignOptions opts;
  opts.threads = 2;

  // A sink that records the cell field of every begin_run.
  struct OrderSink final : metrics::Sink {
    std::vector<std::string> cells;
    void begin_run(const metrics::RunContext& ctx) override {
      for (const auto& field : ctx.fields) {
        if (field.key == "cell") cells.push_back(field.value);
      }
    }
    void on_record(const metrics::CallRecord&) override {}
  };
  metrics::MetricsPipeline pipeline;
  auto* order = pipeline.emplace<OrderSink>();
  opts.pipeline = &pipeline;
  (void)run_campaign(spec, cat_, opts);

  ASSERT_EQ(order->cells.size(), spec.size());
  for (std::size_t i = 0; i < order->cells.size(); ++i) {
    EXPECT_EQ(order->cells[i], std::to_string(i));
  }
}

TEST_F(CampaignTest, GroupPoolingMatchesSerialRepetitions) {
  CampaignSpec spec;
  spec.schedulers = {SchedulerSpec::parse("ours/fifo")};
  spec.scenarios = {workload::ScenarioSpec::parse("uniform?intensity=30")};
  spec.cores = {5};
  spec.seeds = {0, 1, 2};
  const auto result = run_campaign(spec, cat_, {});
  ASSERT_EQ(result.group_count(), 1u);

  const auto serial = run_repetitions(
      ExperimentSpec().cores(5).scenario("uniform?intensity=30").scheduler(
          "ours/fifo"),
      cat_, 3);
  std::vector<double> serial_pool;
  for (const auto& r : serial) {
    serial_pool.insert(serial_pool.end(), r.responses.begin(),
                       r.responses.end());
  }
  EXPECT_EQ(pooled_responses(result.group(0)), serial_pool);
}

TEST_F(CampaignTest, GroupsAreContiguousAndSeedOrdered) {
  const auto spec = small_grid();
  const auto result = run_campaign(spec, cat_, {});
  ASSERT_EQ(result.group_count(), 4u);
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const auto cells = result.group(g);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].index, g * 2);
    EXPECT_EQ(cells[1].index, g * 2 + 1);
    const auto c0 = spec.cell(cells[0].index);
    const auto c1 = spec.cell(cells[1].index);
    EXPECT_EQ(c0.seed_i, 0u);
    EXPECT_EQ(c1.seed_i, 1u);
    EXPECT_EQ(c0.scheduler_i, c1.scheduler_i);
    EXPECT_EQ(c0.scenario_i, c1.scenario_i);
  }
  EXPECT_EQ(result.group_label(0),
            "baseline/fifo/round-robin uniform?intensity=30");
}

TEST_F(CampaignTest, StreamingSummariesMatchExactOnesWithinTheReservoir) {
  const auto spec = small_grid();
  CampaignOptions with_samples;
  const auto exact = run_campaign(spec, cat_, with_samples);
  CampaignOptions bounded;
  bounded.retain_samples = false;  // streaming only
  const auto streamed = run_campaign(spec, cat_, bounded);
  for (std::size_t i = 0; i < exact.cells.size(); ++i) {
    EXPECT_TRUE(streamed.cells[i].responses.empty());
    const auto e = exact.cells[i].response_summary();
    const auto s = streamed.cells[i].response_summary();
    // 165/110 calls per cell fit the 4096-entry reservoir: quantiles exact.
    EXPECT_EQ(s.count, e.count);
    EXPECT_DOUBLE_EQ(s.p50, e.p50);
    EXPECT_DOUBLE_EQ(s.p95, e.p95);
    EXPECT_NEAR(s.mean, e.mean, 1e-12);
  }
}

TEST_F(CampaignTest, ProgressReportsEveryCellOnce) {
  const auto spec = small_grid();
  CampaignOptions opts;
  opts.threads = 2;
  std::vector<std::size_t> done_values;
  opts.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, spec.size());
    done_values.push_back(done);
  };
  (void)run_campaign(spec, cat_, opts);
  ASSERT_EQ(done_values.size(), spec.size());
  // Serialized under the campaign lock: monotone 1..N.
  for (std::size_t i = 0; i < done_values.size(); ++i) {
    EXPECT_EQ(done_values[i], i + 1);
  }
}

TEST_F(CampaignTest, WeightedMixRidesAGridWithPlusSeparatedWeights) {
  // ',' splits grid items, so a weighted mix spells its weights with '+';
  // the grid round-trips and the cell runs the weighted mix.
  const auto spec = CampaignSpec::parse(
      "schedulers=baseline/fifo; "
      "scenarios=poisson?rate=5&mix=weighted&weights=1+1+1+1+1+1+1+1+1+1+1; "
      "seeds=0");
  EXPECT_EQ(CampaignSpec::parse(spec.to_string()), spec);
  const auto result = run_campaign(spec, cat_, {});
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_GT(result.cells[0].calls, 0u);
  EXPECT_NE(cells_csv(result).find(
                "poisson?mix=weighted&rate=5&weights=1+1+1+1+1+1+1+1+1+1+1,"),
            std::string::npos);
}

TEST_F(CampaignTest, GridSeparatorInAScenarioValueAborts) {
  // Set on the struct, the ',' spelling would not survive the grid text
  // (to_string/parse, or the worker wire): normalized() names the '+' form.
  CampaignSpec spec;
  spec.scenarios = {workload::ScenarioSpec::parse(
      "poisson?rate=2&mix=weighted&weights=1,1,1,1,1,1,1,1,1,1,1")};
  EXPECT_DEATH((void)spec.normalized(),
               "weights=\"1,1,.*contains a grid separator.*weights=1\\+2");
}

TEST_F(CampaignTest, ClustersAxisRunsAndIsThreadInvariant) {
  // The acceptance-criterion grid: a clusters axis whose second entry
  // drains one node and fails another mid-burst. Output must be invariant
  // under the thread count and the re-submitted calls fully accounted.
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept/weighted-least-loaded; "
      "scenarios=fixed-total?total=150&window=10; seeds=0..1; "
      "clusters=node:2,"
      "big:1?cores=16+small:2?cores=4|keep-alive=ttl?idle-s=120|"
      "events=drain@3:small/0+fail@6:small/1");
  ASSERT_EQ(spec.size(), 4u);
  ASSERT_TRUE(spec.cluster_mode());

  auto run_at = [&](int threads) {
    CampaignOptions opts;
    opts.threads = threads;
    opts.retain_records = true;
    std::ostringstream records;
    metrics::MetricsPipeline pipeline;
    pipeline.emplace<metrics::CsvSink>(records, cat_);
    opts.pipeline = &pipeline;
    const auto result = run_campaign(spec, cat_, opts);
    return std::make_pair(result,
                          cells_csv(result) + "\n---\n" +
                              cells_jsonl(result) + "\n---\n" + records.str());
  };
  const auto [result1, text1] = run_at(1);
  const auto [result2, text2] = run_at(2);
  EXPECT_EQ(text1, text2);

  // Cells of the churning cluster (group 1) complete every call and log
  // the failure's re-submissions.
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto cell = spec.cell(i);
    EXPECT_EQ(result1.cells[i].calls, 150u) << "cell " << i;
    if (cell.cluster_i == 1) {
      EXPECT_GT(result1.cells[i].resubmissions, 0u) << "cell " << i;
      ASSERT_EQ(result1.cells[i].groups.size(), 2u);
      EXPECT_EQ(result1.cells[i].groups[0].name, "big");
      EXPECT_EQ(result1.cells[i].groups[1].name, "small");
    } else {
      EXPECT_EQ(result1.cells[i].resubmissions, 0u);
    }
  }

  // The same cell through the serial runner agrees record for record, and
  // its collector accounts the re-submissions.
  const auto churn_cell = spec.cell(spec.group_index({.cluster_i = 1}) *
                                    spec.seeds_per_group());
  const auto serial = run_experiment(churn_cell.spec, cat_);
  EXPECT_EQ(serial.resubmissions, result1.cells[churn_cell.index].resubmissions);
  std::size_t retried = 0;
  for (const auto& rec : serial.records) {
    if (rec.attempts > 1) ++retried;
  }
  EXPECT_GT(retried, 0u);
  EXPECT_EQ(metrics::to_csv(serial.records, cat_),
            metrics::to_csv(result2.cells[churn_cell.index].records, cat_));
}

TEST_F(CampaignTest, ClustersAxisRoundTripsThroughToString) {
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=uniform?intensity=30; seeds=0; "
      "clusters=node:4,big:2?cores=16+small:4|keep-alive=pool-target?floor=2");
  const auto reparsed = CampaignSpec::parse(spec.to_string());
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.clusters.size(), 2u);
  EXPECT_EQ(reparsed.clusters[1].keep_alive.name, "pool-target");
}

TEST_F(CampaignTest, ClusterCellsCarryTheSpecIntoExperimentSpecs) {
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/fifo; scenarios=fixed-total?total=50; seeds=0; "
      "clusters=big:1?cores=2+small:1");
  ASSERT_EQ(spec.size(), 1u);
  const auto cell = spec.cell(0);
  EXPECT_EQ(cell.spec.cluster().groups.size(), 2u);
  EXPECT_EQ(cell.spec.cluster().groups[0].name, "big");
}

TEST(CampaignSpecClusterDeath, ClustersAndNodesAxesConflict) {
  EXPECT_DEATH((void)CampaignSpec::parse(
                   "schedulers=ours/fifo; nodes=2; clusters=node:3"),
               "clusters axis and a nodes axis");
  EXPECT_DEATH((void)CampaignSpec::parse(
                   "schedulers=ours/fifo; clusters=node:1,node:2; nodes=4"),
               "clusters axis and a nodes axis");
}

TEST(CampaignSpecClusterTest, DefaultClustersAxisLeavesNodesInCharge) {
  // clusters=node:1 is the default deployment, i.e. no clusters axis: the
  // nodes= axis sizes the fleet.
  const auto spec =
      CampaignSpec::parse("schedulers=ours/fifo; clusters=node:1; nodes=4");
  EXPECT_FALSE(spec.cluster_mode());
  EXPECT_EQ(spec.cell(0).spec.nodes(), 4);
  EXPECT_EQ(spec, CampaignSpec::parse("schedulers=ours/fifo; nodes=4"));
}

TEST_F(CampaignTest, AutoscalerAxisRunsAndIsThreadInvariant) {
  // The PR acceptance grid: an autoscaler axis crossed with a deployment
  // that also drains and fails nodes mid-burst. Output must be invariant
  // under the thread count, and the new economics columns must be real.
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept/weighted-least-loaded; "
      "scenarios=fixed-total?total=150&window=10; seeds=0..1; "
      // min-nodes=3 keeps the controller's scale-downs off the three seed
      // members the scripted events target (the events abort if their node
      // was already drained).
      "clusters=node:3?cost-per-hour=1&min-nodes=3&max-nodes=6|slo=p99<5|"
      "events=drain@3:node/2+fail@6:node/1; "
      "autoscalers=none,target-util?high=0.6&tick-s=1&cooldown-s=1");
  ASSERT_EQ(spec.size(), 4u);
  ASSERT_TRUE(spec.autoscaler_mode());

  auto run_at = [&](int threads) {
    CampaignOptions opts;
    opts.threads = threads;
    std::ostringstream records;
    metrics::MetricsPipeline pipeline;
    pipeline.emplace<metrics::CsvSink>(records, cat_);
    opts.pipeline = &pipeline;
    const auto result = run_campaign(spec, cat_, opts);
    return std::make_pair(result,
                          cells_csv(result) + "\n---\n" +
                              cells_jsonl(result) + "\n---\n" + records.str());
  };
  const auto [result1, text1] = run_at(1);
  const auto [result2, text2] = run_at(2);
  EXPECT_EQ(text1, text2);
  const int hw = util::ThreadPool::hardware_threads();
  if (hw > 2) {
    EXPECT_EQ(text1, run_at(hw).second);
  }

  // Every cell completes the burst, meters the fleet and counts SLO
  // violations; only the autoscaled cells scale.
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto cell = spec.cell(i);
    const auto& res = result1.cells[i];
    EXPECT_EQ(res.calls, 150u) << "cell " << i;
    EXPECT_GT(res.cost_usd, 0.0) << "cell " << i;
    EXPECT_GT(res.node_hours, 0.0) << "cell " << i;
    std::size_t above = 0;
    for (double r : res.responses) {
      if (r > 5.0) ++above;
    }
    EXPECT_EQ(res.slo_violations, above) << "cell " << i;
    if (cell.autoscaler_i == 1) {
      EXPECT_GT(res.scale_ups, 0u) << "cell " << i;
    } else {
      EXPECT_EQ(res.scale_ups, 0u) << "cell " << i;
      EXPECT_EQ(res.scale_downs, 0u) << "cell " << i;
    }
  }

  // The new columns ride in the header and the autoscaler spec in the rows.
  const std::string csv = cells_csv(result1);
  EXPECT_NE(csv.find(",autoscaler,"), std::string::npos);
  EXPECT_NE(csv.find("cost_usd,node_hours,slo_violations,scale_ups,"
                     "scale_downs"),
            std::string::npos);
  EXPECT_NE(csv.find("target-util?cooldown-s=1&high=0.6&tick-s=1"),
            std::string::npos);
}

TEST_F(CampaignTest, AutoscalerAxisRoundTripsThroughToString) {
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=uniform?intensity=30; seeds=0; "
      "clusters=node:2?max-nodes=4; "
      "autoscalers=none,queue-depth?high=6,predictive");
  const auto reparsed = CampaignSpec::parse(spec.to_string());
  EXPECT_EQ(reparsed, spec);
  ASSERT_EQ(reparsed.autoscalers.size(), 3u);
  EXPECT_FALSE(reparsed.autoscalers[0].enabled());
  EXPECT_EQ(reparsed.autoscalers[1].name, "queue-depth");
  EXPECT_EQ(spec.size(), 3u);
  // The axis shows up in multi-valued labels.
  EXPECT_NE(spec.label(spec.cell(2)).find("autoscaler=predictive"),
            std::string::npos);
}

TEST(CampaignSpecAutoscalerDeath, AxisConflictsWithClusterSection) {
  EXPECT_DEATH(
      (void)CampaignSpec::parse(
          "schedulers=ours/fifo; "
          "clusters=node:2|autoscaler=target-util; "
          "autoscalers=queue-depth"),
      "set it in one place");
  EXPECT_DEATH(
      (void)CampaignSpec::parse(
          "schedulers=ours/fifo; "
          "clusters=node:2|faults=slow-node; "
          "faults=none,crash-restart"),
      "set them in one place");
}

TEST(CampaignSpecAutoscalerTest, DefaultClusterSectionsDoNotConflict) {
  // "autoscaler=none" / "faults=none" inside a cluster item are the
  // absent sections, so the axes own their dimensions without a clash.
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/fifo; clusters=node:2|autoscaler=none|faults=none; "
      "autoscalers=target-util; faults=none,crash-restart");
  EXPECT_EQ(spec.clusters[0], cluster::ClusterSpec::homogeneous(2));
  ASSERT_TRUE(spec.autoscaler_mode());
  ASSERT_TRUE(spec.fault_mode());
  const auto cell = spec.cell(spec.seeds_per_group());  // faults_i == 1
  EXPECT_EQ(cell.spec.cluster().autoscaler.name, "target-util");
  ASSERT_EQ(cell.spec.cluster().faults.size(), 1u);
  EXPECT_EQ(cell.spec.cluster().faults[0].name, "crash-restart");
}

TEST_F(CampaignTest, AutoscalerFreeGridsKeepTheLegacyColumnsStable) {
  // A grid with no autoscaler anywhere reports autoscaler=none and zeroed
  // scaling columns — and its cells run the exact pre-autoscaler code path
  // (no in-flight tracking, no controller history).
  CampaignSpec spec;
  spec.scenarios = {workload::ScenarioSpec::parse("fixed-total?total=50")};
  spec.cores = {5};
  spec.seeds = {0};
  const auto result = run_campaign(spec, cat_, {});
  EXPECT_FALSE(spec.autoscaler_mode());
  const auto& res = result.cells[0];
  EXPECT_EQ(res.scale_ups, 0u);
  EXPECT_EQ(res.scale_downs, 0u);
  EXPECT_EQ(res.slo_violations, 0u) << "no slo= section: nothing to violate";
  EXPECT_GT(res.node_hours, 0.0) << "metering covers static fleets too";
  EXPECT_EQ(res.cost_usd, 0.0) << "default cost-per-hour is 0";
  const std::string csv = cells_csv(result);
  EXPECT_NE(csv.find(",none,"), std::string::npos);
}

// The ISSUE's chaos determinism pin: a grid with every registered fault
// process active (plus the full resilience layer) must produce
// byte-identical per-cell output for any thread count — fault draws ride
// on per-cell forked streams, never on shared state.
TEST_F(CampaignTest, ChaosCellsAreInvariantUnderThreadCount) {
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept,baseline/fifo; "
      "scenarios=uniform?intensity=30; seeds=0..1; "
      "clusters=node:4|resilience=timeout-s=8&max-attempts=4&retry-budget=1&"
      "hedge-p=0.95&breaker-failures=3&max-queue=64; "
      "faults=none,"
      "crash-restart?mtbf-s=60&mttr-s=10+flap?period-s=40&down-s=4+"
      "slow-node?mtbf-s=40&factor=3+lost-completion?probability=0.05");
  ASSERT_TRUE(spec.fault_mode());
  ASSERT_EQ(spec.size(), 8u);

  auto run_at = [&](int threads) {
    CampaignOptions opts;
    opts.threads = threads;
    std::ostringstream records;
    metrics::MetricsPipeline pipeline;
    pipeline.emplace<metrics::JsonlSink>(records, cat_);
    opts.pipeline = &pipeline;
    const auto result = run_campaign(spec, cat_, opts);
    return cells_csv(result) + "\n---\n" + cells_jsonl(result) + "\n---\n" +
           records.str();
  };
  const std::string at1 = run_at(1);
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1, run_at(4));
  EXPECT_EQ(at1, run_at(0)) << "0 = auto thread count";

  // The faulted cells actually differ from the fault-free baseline — the
  // invariance above is not comparing two inert runs.
  CampaignOptions opts;
  const auto result = run_campaign(spec, cat_, opts);
  std::size_t faulted_injections = 0;
  for (const auto& cell : result.cells) {
    const auto coords = spec.coordinates(cell.index);
    if (coords.faults_i == 1) {
      faulted_injections += cell.faults_injected;
    } else {
      EXPECT_EQ(cell.faults_injected, 0u);
      EXPECT_EQ(cell.unavailability_s, 0.0);
    }
  }
  EXPECT_GT(faulted_injections, 0u);
}

// A faults axis value is folded into the cell's deployment and validated
// together with the cluster item's resilience section: lost completions are
// only survivable with a retry timeout.
TEST(CampaignSpecFaultsDeath, AxisValueIsValidatedWithTheClusterResilience) {
  const auto cat = workload::sebs_catalog();
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=uniform?intensity=30; seeds=0; "
      "clusters=node:2; faults=lost-completion");
  CampaignOptions opts;
  opts.threads = 1;
  EXPECT_DEATH((void)run_campaign(spec, cat, opts),
               "resilience sets no timeout-s");
}

// Quote-aware CSV split of one line (no embedded newlines in cells rows).
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        out.back() += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        out.back() += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

// The top-level member names of one JSON object line, in order.
std::vector<std::string> json_top_keys(const std::string& line) {
  std::vector<std::string> keys;
  int depth = 0;
  bool in_string = false;
  bool expect_key = false;
  std::string current;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        if (expect_key) current += line[i + 1];
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (expect_key) {
          keys.push_back(current);
          expect_key = false;
        }
      } else if (expect_key) {
        current += c;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      current.clear();
    } else if (c == '{' || c == '[') {
      ++depth;
      expect_key = depth == 1;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',' && depth == 1) {
      expect_key = true;
    }
  }
  return keys;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST_F(CampaignTest, CellsRowsAndRecordContextShareOneSchema) {
  // A chaos grid with two override axes: every nested part of a row
  // (overrides, summaries, groups) is present and non-trivial.
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=fixed-total?total=60; seeds=0..1; "
      "clusters=node:2|resilience=timeout-s=8&max-attempts=3; "
      "faults=none,crash-restart?mtbf-s=20&mttr-s=5; "
      "override:strain_per_container=0.01,0.02; "
      "override:context_switch_beta=0.5,1");
  std::ostringstream records;
  metrics::MetricsPipeline pipeline;
  pipeline.emplace<metrics::CsvSink>(records, cat_);
  CampaignOptions opts;
  opts.threads = 2;
  opts.pipeline = &pipeline;
  const auto result = run_campaign(spec, cat_, opts);
  ASSERT_EQ(result.cells.size(), 16u);

  const std::vector<std::string> csv = lines_of(cells_csv(result));
  ASSERT_EQ(csv.size(), result.cells.size() + 1);
  const std::vector<std::string> header = split_csv(csv[0]);
  for (std::size_t i = 1; i < csv.size(); ++i) {
    EXPECT_EQ(split_csv(csv[i]).size(), header.size()) << "row " << i;
  }

  // The record context is the cells CSV's flat columns: the coordinates,
  // one override:<k> per override axis, then every metric column — i.e.
  // the header without calls, the summaries and groups.
  std::vector<std::string> want_context;
  for (const std::string& column : header) {
    if (column == "overrides") {
      for (const auto& [name, values] : result.spec.overrides) {
        want_context.push_back("override:" + name);
      }
    } else if (column != "calls" && column != "groups" &&
               column.rfind("r_", 0) != 0 && column.rfind("s_", 0) != 0) {
      want_context.push_back(column);
    }
  }
  const std::vector<std::string> record_header =
      split_csv(lines_of(records.str()).front());
  const std::size_t record_columns =
      split_csv(metrics::kCallRecordCsvHeader).size();
  ASSERT_GT(record_header.size(), record_columns);
  EXPECT_EQ(std::vector<std::string>(record_header.begin(),
                                     record_header.end() - record_columns),
            want_context);
  EXPECT_EQ(std::count(want_context.begin(), want_context.end(),
                       "dropped_calls"),
            1);

  // JSONL members follow CSV order, each summary run folded into one
  // nested object.
  std::vector<std::string> want_json;
  for (const std::string& column : header) {
    if (column.rfind("r_", 0) == 0 || column.rfind("s_", 0) == 0) {
      const std::string folded = column[0] == 'r' ? "response" : "stretch";
      if (want_json.back() != folded) want_json.push_back(folded);
    } else {
      want_json.push_back(column);
    }
  }
  const std::vector<std::string> jsonl = lines_of(cells_jsonl(result));
  ASSERT_EQ(jsonl.size(), result.cells.size());
  for (std::size_t i = 0; i < jsonl.size(); ++i) {
    EXPECT_EQ(json_top_keys(jsonl[i]), want_json) << "line " << i;
  }
}

TEST_F(CampaignTest, RowsSpellEachCellsOwnCoordinates) {
  // The renderers keep a group's coordinate fields and re-spell only `cell`
  // and `seed` inside it; every row must still carry the coordinates of its
  // own cell, which the record context spells afresh per cell. Scattered
  // seeds and an override axis give four groups of three rows.
  const auto spec = CampaignSpec::parse(
      "schedulers=baseline/fifo,ours/sept; scenarios=fixed-total?total=60; "
      "seeds=8,3,5; cores=5; override:strain_per_container=0.01,0.02");
  std::ostringstream records;
  metrics::MetricsPipeline pipeline;
  pipeline.emplace<metrics::CsvSink>(records, cat_);
  CampaignOptions opts;
  opts.threads = 2;
  opts.pipeline = &pipeline;
  const auto result = run_campaign(spec, cat_, opts);
  ASSERT_EQ(result.cells.size(), 12u);

  // The leading (context) columns of each cell's first record row.
  std::vector<std::vector<std::string>> context(result.cells.size());
  const std::vector<std::string> record_lines = lines_of(records.str());
  for (std::size_t i = 1; i < record_lines.size(); ++i) {
    std::vector<std::string> row = split_csv(record_lines[i]);
    auto& slot = context.at(std::stoul(row.at(0)));
    if (slot.empty()) slot = std::move(row);
  }

  const std::vector<std::string> csv = lines_of(cells_csv(result));
  const std::vector<std::string> jsonl = lines_of(cells_jsonl(result));
  ASSERT_EQ(csv.size(), result.cells.size() + 1);
  ASSERT_EQ(jsonl.size(), result.cells.size());
  const std::vector<std::string> header = split_csv(csv[0]);
  const auto coordinates = static_cast<std::size_t>(
      std::find(header.begin(), header.end(), "overrides") - header.begin());
  ASSERT_EQ(header[0], "cell");
  ASSERT_EQ(header[3], "seed");
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const std::vector<std::string> row = split_csv(csv[i + 1]);
    ASSERT_GT(context[i].size(), coordinates) << "cell " << i;
    EXPECT_EQ(std::vector<std::string>(row.begin(), row.begin() + coordinates),
              std::vector<std::string>(context[i].begin(),
                                       context[i].begin() + coordinates))
        << "cell " << i;
    EXPECT_EQ(row[coordinates],
              "strain_per_container=" + context[i][coordinates])
        << "cell " << i;
    EXPECT_EQ(jsonl[i].rfind("{\"cell\":" + row[0] + ",\"scheduler\":\"" +
                                 row[1] + "\",",
                             0),
              0u)
        << "line " << i;
    EXPECT_NE(jsonl[i].find(",\"seed\":" + row[3] + ","), std::string::npos)
        << "line " << i;
    EXPECT_NE(jsonl[i].find("\"overrides\":{\"strain_per_container\":" +
                            context[i][coordinates] + "}"),
              std::string::npos)
        << "line " << i;
  }
}

TEST_F(CampaignTest, PooledHelpersNeedRetainedSamples) {
  CampaignSpec spec;
  spec.scenarios = {workload::ScenarioSpec::parse("uniform?intensity=30")};
  spec.cores = {5};
  spec.seeds = {0};
  CampaignOptions opts;
  opts.retain_samples = false;
  const auto result = run_campaign(spec, cat_, opts);
  EXPECT_DEATH((void)pooled_responses(result.group(0)), "retain_samples");
}

TEST_F(CampaignTest, AggregateHelpersNeedStreamedCells) {
  CampaignSpec spec;
  spec.scenarios = {workload::ScenarioSpec::parse("uniform?intensity=30")};
  spec.cores = {5};
  spec.seeds = {0};
  const auto result = run_campaign(spec, cat_, {});
  EXPECT_DEATH((void)aggregate_responses(result.group(0)), "retain_samples");
}

TEST_F(CampaignTest, ZeroReservoirCapacityAborts) {
  CampaignOptions opts;
  opts.retain_samples = false;
  opts.reservoir_capacity = 0;
  EXPECT_DEATH((void)run_campaign(small_grid(), cat_, opts),
               "campaign reservoir capacity must be > 0");
}

TEST_F(CampaignTest, GroupSummaryPoolsKeptSamplesExactly) {
  const auto result = run_campaign(small_grid(), cat_, {});
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const auto cells = result.group(g);
    GroupSummary want;
    want.group = g;
    for (const CellResult& c : cells) {
      want.calls += c.calls;
      want.ok_calls += c.ok_calls;
    }
    want.cold_starts = total_stats(cells).cold_starts;
    want.max_completion = max_completion(cells);
    want.response = util::summarize(pooled_responses(cells));
    want.stretch = util::summarize(pooled_stretches(cells));
    expect_same_group(result.group_summary(g), want);
  }
}

TEST_F(CampaignTest, GroupSummaryFoldsStreamsWithoutSamples) {
  CampaignOptions opts;
  opts.retain_samples = false;
  opts.reservoir_capacity = 64;  // below a cell's calls: estimates
  const auto result = run_campaign(small_grid(), cat_, opts);
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const auto cells = result.group(g);
    const GroupSummary got = result.group_summary(g);
    expect_same_summary(got.response, aggregate_responses(cells).summary(),
                        "response");
    expect_same_summary(got.stretch, aggregate_stretches(cells).summary(),
                        "stretch");
    EXPECT_FALSE(aggregate_responses(cells).exact());
  }
}

TEST_F(CampaignTest, StoredCellSummariesEqualRecomputedOnes) {
  for (const bool retain : {true, false}) {
    CampaignOptions opts;
    opts.threads = 2;
    opts.retain_samples = retain;
    opts.reservoir_capacity = 64;  // below a cell's calls: thinned streams
    const auto result = run_campaign(small_grid(), cat_, opts);
    for (const CellResult& cell : result.cells) {
      const util::Summary response = retain
                                         ? util::summarize(cell.responses)
                                         : cell.response_stream.summary();
      const util::Summary stretch = retain
                                        ? util::summarize(cell.stretches)
                                        : cell.stretch_stream.summary();
      EXPECT_EQ(cell.response.count, cell.ok_calls);
      expect_same_summary(cell.response, response, "stored response");
      expect_same_summary(cell.stretch, stretch, "stored stretch");
      expect_same_summary(cell.response_summary(), response, "response");
      expect_same_summary(cell.stretch_summary(), stretch, "stretch");
    }
  }
}

// A CellResult assembled outside run_campaign carries no stored summaries
// (count 0 != ok_calls): its summaries are computed on demand, so it
// renders the same cells rows as the campaign's own cell.
TEST_F(CampaignTest, HandAssembledCellsRenderTheSameRows) {
  const auto spec = small_grid();
  CampaignOptions opts;
  opts.threads = 2;
  const auto exact = run_campaign(spec, cat_, opts);
  opts.retain_samples = false;
  opts.reservoir_capacity = 64;
  const auto streamed = run_campaign(spec, cat_, opts);

  CampaignResult kept = exact;
  CampaignResult bounded = exact;
  for (std::size_t i = 0; i < exact.cells.size(); ++i) {
    CellResult& k = kept.cells[i];
    k.response = {};
    k.stretch = {};
    // Streams filled sample by sample, the samples then dropped.
    CellResult& b = bounded.cells[i];
    b.response = {};
    b.stretch = {};
    b.response_stream = metrics::StreamingSummary(64);
    b.stretch_stream = metrics::StreamingSummary(64);
    for (double r : b.responses) b.response_stream.add(r);
    for (double x : b.stretches) b.stretch_stream.add(x);
    b.responses.clear();
    b.stretches.clear();
    ASSERT_NE(b.response.count, b.ok_calls);
  }
  EXPECT_EQ(cells_csv(kept), cells_csv(exact));
  EXPECT_EQ(cells_jsonl(kept), cells_jsonl(exact));
  EXPECT_EQ(cells_csv(bounded), cells_csv(streamed));
  EXPECT_EQ(cells_jsonl(bounded), cells_jsonl(streamed));
}

// The cells files spell doubles with std::to_chars; by the standard's
// definition that is printf's %g (summaries and the oldest columns) and
// %.10g (util::fmt_g columns), byte for byte, edge values included.
TEST_F(CampaignTest, NumberSpellingMatchesPrintf) {
  const double values[] = {0.0,  -0.0,   1e-5,   1e-4,
                           999999.5, 1e300, 5e-324, HUGE_VAL};
  CampaignResult result;
  result.spec = small_grid().normalized();
  result.shard = result.spec.shard(0, 1);
  for (std::size_t i = 0; i < std::size(values); ++i) {
    CellResult cell;
    cell.index = i;
    cell.max_completion = values[i];  // %g
    cell.cost_usd = values[i];        // %.10g
    cell.response.mean = values[i];   // %g; count 0 == ok_calls: stored
    result.cells.push_back(cell);
  }
  const std::vector<std::string> csv = lines_of(cells_csv(result));
  const std::vector<std::string> header = split_csv(csv[0]);
  auto column = [&](const char* name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  for (std::size_t i = 0; i < std::size(values); ++i) {
    char g[64];
    char g10[64];
    std::snprintf(g, sizeof g, "%g", values[i]);
    std::snprintf(g10, sizeof g10, "%.10g", values[i]);
    const std::vector<std::string> row = split_csv(csv[i + 1]);
    EXPECT_EQ(row[column("max_completion")], g) << values[i];
    EXPECT_EQ(row[column("r_mean")], g) << values[i];
    EXPECT_EQ(row[column("cost_usd")], g10) << values[i];
    EXPECT_EQ(util::fmt_g(values[i]), g10) << values[i];
  }
}

}  // namespace
}  // namespace whisk::experiments
