#include "experiments/campaign_spec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "experiments/campaign.h"
#include "util/parse.h"

namespace whisk::experiments {
namespace {

// Two values on every axis kind, with clusters standing in for nodes.
constexpr const char* kEveryAxisGrid =
    "schedulers=baseline/fifo,ours/sept; "
    "scenarios=uniform?intensity=10,fixed-total?total=40; seeds=0..1; "
    "cores=5,10; memory-mb=2048,32768; "
    "clusters=node:2,big:1?cores=16+small:2|keep-alive=ttl?idle-s=120; "
    "autoscalers=none,target-util?tick-s=1&cooldown-s=1; "
    "faults=none,crash-restart?mtbf-s=60&mttr-s=10; "
    "workflows=none,chain?stages=3; "
    "override:history_window=1,10; override:fc_window=2,4";

// A swept nodes axis, whose deployments also take the autoscaler and
// faults axis values.
constexpr const char* kNodesAxisGrid =
    "schedulers=ours/sept; scenarios=uniform?intensity=30; seeds=3,5..6; "
    "nodes=1,2; cores=5; autoscalers=none,target-util?tick-s=1; "
    "faults=none,slow-node?factor=3; override:history_window=1,3";

TEST(CampaignSpecTest, DefaultsArePaperShaped) {
  const CampaignSpec spec;
  EXPECT_EQ(spec.schedulers.size(), 1u);
  EXPECT_EQ(spec.scenarios.size(), 1u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(spec.size(), 5u);
  EXPECT_EQ(spec.group_count(), 1u);
}

TEST(CampaignSpecTest, ParseBuildsTheGrid) {
  const auto spec = CampaignSpec::parse(
      "schedulers=baseline/fifo,ours/sept; "
      "scenarios=uniform?intensity=30,fixed-total?total=110; "
      "seeds=0..2; nodes=1,2; cores=10; memory-mb=2048,32768");
  EXPECT_EQ(spec.schedulers.size(), 2u);
  EXPECT_EQ(spec.schedulers[1].policy, "sept");
  EXPECT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(spec.nodes, (std::vector<int>{1, 2}));
  EXPECT_EQ(spec.memories_mb, (std::vector<double>{2048, 32768}));
  EXPECT_EQ(spec.size(), 2u * 2u * 3u * 2u * 2u);
}

TEST(CampaignSpecTest, ToStringRoundTrips) {
  const char* grids[] = {
      "schedulers=ours/sept; scenarios=uniform?intensity=60; seeds=0..4",
      "schedulers=baseline/fifo,ours/fc; scenarios=fixed-total?total=2376; "
      "seeds=0,1; nodes=4,3,2,1; cores=18",
      "schedulers=ours/sept; scenarios=uniform?intensity=60; seeds=0..1; "
      "override:history_window=1,3,10",
      "schedulers=ours/fifo; scenarios=uniform; seeds=7,3,9..11; "
      "memory-mb=2048.5",
      kEveryAxisGrid,
      kNodesAxisGrid,
  };
  for (const char* text : grids) {
    const auto spec = CampaignSpec::parse(text);
    EXPECT_EQ(CampaignSpec::parse(spec.to_string()), spec) << text;
    // to_string is canonical: a second round trip is a fixed point.
    EXPECT_EQ(CampaignSpec::parse(spec.to_string()).to_string(),
              spec.to_string())
        << text;
  }
}

TEST(CampaignSpecTest, ToStringCollapsesSeedRuns) {
  CampaignSpec spec;
  spec.seeds = {0, 1, 2, 3, 4};
  EXPECT_NE(spec.to_string().find("seeds=0..4"), std::string::npos);
  spec.seeds = {7, 3, 9, 10, 11};
  EXPECT_NE(spec.to_string().find("seeds=7,3,9..11"), std::string::npos);
}

TEST(CampaignSpecTest, NamesAreNormalized) {
  const auto spec = CampaignSpec::parse(
      "SCHEDULERS=OURS/SEPT; Scenarios=FIXED?total=10; seeds=0");
  EXPECT_EQ(spec.schedulers[0].to_string(), "ours/sept/round-robin");
  EXPECT_EQ(spec.scenarios[0].name, "fixed-total");
}

TEST(CampaignSpecTest, CellExpansionIsSeedInnermost) {
  const auto spec = CampaignSpec::parse(
      "schedulers=baseline/fifo,ours/sept; "
      "scenarios=uniform?intensity=30; seeds=0..1");
  ASSERT_EQ(spec.size(), 4u);
  // Cells 0,1: scheduler 0 seeds 0,1. Cells 2,3: scheduler 1 seeds 0,1.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto cell = spec.cell(i);
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.scheduler_i, i / 2);
    EXPECT_EQ(cell.seed_i, i % 2);
    EXPECT_EQ(cell.spec.seed(), i % 2);
    EXPECT_EQ(cell.spec.scheduler(),
              spec.schedulers[i / 2].normalized());
  }
}

TEST(CampaignSpecTest, CellsCarryOverrides) {
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=uniform?intensity=60; seeds=0; "
      "override:history_window=1,50");
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_EQ(spec.cell(0).spec.node_params().history_window, 1u);
  EXPECT_EQ(spec.cell(1).spec.node_params().history_window, 50u);
}

TEST(CampaignSpecTest, GroupIndexInvertsTheCellExpansion) {
  const auto spec = CampaignSpec::parse(
      "schedulers=baseline/fifo,ours/sept; "
      "scenarios=uniform?intensity=30,fixed-total?total=110; "
      "seeds=0..1; nodes=1,2; override:history_window=1,3");
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto cell = spec.cell(i);
    EXPECT_EQ(spec.group_index(cell), i / spec.seeds_per_group())
        << "cell " << i;
  }
  EXPECT_DEATH((void)spec.group_index({.scheduler_i = 2}),
               "scheduler coordinate");
}

TEST(CampaignSpecTest, ClustersAxisExpandsCompactSpecs) {
  const auto spec = CampaignSpec::parse(
      "schedulers=ours/sept; scenarios=uniform?intensity=30; seeds=0..1; "
      "clusters=node:2,big:1?cores=16+small:2|events=drain@5:small/0+"
      "fail@9:small/1");
  ASSERT_EQ(spec.clusters.size(), 2u);
  EXPECT_TRUE(spec.cluster_mode());
  EXPECT_EQ(spec.size(), 4u);
  EXPECT_EQ(spec.clusters[0], cluster::ClusterSpec::homogeneous(2));
  EXPECT_EQ(spec.clusters[1].groups.size(), 2u);
  EXPECT_EQ(spec.clusters[1].events.size(), 2u);
  // Expansion: cluster varies faster than the seed-outer axes; cell 0/1
  // are cluster 0 seeds, cell 2/3 cluster 1 seeds.
  EXPECT_EQ(spec.cell(0).cluster_i, 0u);
  EXPECT_EQ(spec.cell(1).cluster_i, 0u);
  EXPECT_EQ(spec.cell(2).cluster_i, 1u);
  EXPECT_EQ(spec.cell(2).seed_i, 0u);
  // Round-trip through the canonical string.
  EXPECT_EQ(CampaignSpec::parse(spec.to_string()), spec);
  // Labels identify the swept deployment.
  EXPECT_NE(spec.label(spec.cell(2)).find("big:1"), std::string::npos);
}

TEST(CampaignSpecTest, DefaultGridHasNoClusterMode) {
  const auto spec = CampaignSpec::parse("schedulers=ours/sept; seeds=0");
  EXPECT_FALSE(spec.cluster_mode());
  EXPECT_EQ(spec.to_string().find("clusters="), std::string::npos)
      << "legacy grids round-trip without a clusters axis";
  EXPECT_EQ(spec.cell(0).spec.cluster(), cluster::ClusterSpec::homogeneous(1));
}

TEST(CampaignSpecTest, AxesSpelledAtTheirDefaultMeanAbsent) {
  const char* bare = "schedulers=ours/sept; seeds=0..1; nodes=2";
  const auto spelled = CampaignSpec::parse(
      std::string(bare) + "; autoscalers=none; faults=none; workflows=none");
  EXPECT_EQ(spelled, CampaignSpec::parse(bare));
  EXPECT_FALSE(spelled.autoscaler_mode());
  EXPECT_FALSE(spelled.fault_mode());
  EXPECT_FALSE(spelled.workflow_mode());
  EXPECT_EQ(spelled.to_string(), CampaignSpec::parse(bare).to_string());
  EXPECT_EQ(CampaignSpec::parse(spelled.to_string()), spelled);
  // A one-node clusters axis is no clusters axis either.
  EXPECT_EQ(CampaignSpec::parse("schedulers=ours/sept; clusters=node:1"),
            CampaignSpec::parse("schedulers=ours/sept"));
}

TEST(CampaignSpecTest, EverySpellingOfADeploymentYieldsTheSameCells) {
  const std::string axes = "schedulers=ours/sept; seeds=0..1; cores=5; ";
  const auto nodes = CampaignSpec::parse(axes + "nodes=2");
  const auto clusters = CampaignSpec::parse(axes + "clusters=node:2");
  const auto spelled = CampaignSpec::parse(
      axes +
      "clusters=node:2|keep-alive=lru|autoscaler=none|faults=none|"
      "resilience=none; autoscalers=none; workflows=none");
  EXPECT_EQ(clusters, spelled);
  ASSERT_EQ(nodes.size(), clusters.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ExperimentSpec a = nodes.cell(i).spec;
    const ExperimentSpec b = clusters.cell(i).spec;
    EXPECT_EQ(a.cluster(), cluster::ClusterSpec::homogeneous(2)) << i;
    EXPECT_EQ(b.cluster(), a.cluster()) << i;
    EXPECT_EQ(b.nodes(), 2) << i;
    EXPECT_EQ(b.seed(), a.seed()) << i;
  }
}

TEST(CampaignSpecTest, FirstSeedsArePaperSeeds) {
  EXPECT_EQ(CampaignSpec::first_seeds(5),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_DEATH((void)CampaignSpec::first_seeds(0), "positive count");
}

TEST(CampaignSpecTest, LabelShowsOnlySweptAxes) {
  const auto spec = CampaignSpec::parse(
      "schedulers=baseline/fifo,ours/sept; "
      "scenarios=uniform?intensity=30; seeds=0..1; cores=10");
  const auto cell = spec.cell(3);
  EXPECT_EQ(spec.label(cell), "ours/sept/round-robin seed=1");
  EXPECT_EQ(spec.label(cell, /*with_seed=*/false),
            "ours/sept/round-robin");
}

// The coordinate columns of cell `i`'s record context, as "key=value"s.
std::string coordinate_columns(const CampaignSpec& spec, std::size_t i) {
  std::string out;
  for (const auto& f : cell_context(spec, spec.coordinates(i), CellResult()).fields) {
    if (f.key == "max_completion") break;  // the first metric column
    if (!out.empty()) out += ' ';
    out += f.key + "=" + f.value;
  }
  return out;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ull;
  return h;
}

// Spellings pinned over every axis kind: to_string, the labels of the first
// and last cell, and the coordinate columns of every group's first cell
// (spelled out for the first and last group, hashed over all of them).
TEST(CampaignSpecTest, EveryAxisKindKeepsItsSpelling) {
  struct Golden {
    const char* grid;
    const char* text;
    const char* first_label;
    const char* last_label;
    const char* first_group;
    const char* last_group;
    std::uint64_t groups_hash;
  };
  const Golden goldens[] = {
      {kEveryAxisGrid,
       "schedulers=baseline/fifo/round-robin,ours/sept/round-robin; "
       "scenarios=uniform?intensity=10,fixed-total?total=40; seeds=0..1; "
       "nodes=1; cores=5,10; memory-mb=2048,32768; "
       "clusters=node:2,big:1?cores=16+small:2|keep-alive=ttl?idle-s=120; "
       "autoscalers=none,target-util?cooldown-s=1&tick-s=1; "
       "faults=none,crash-restart?mtbf-s=60&mttr-s=10; "
       "workflows=none,chain?stages=3; override:fc_window=2,4; "
       "override:history_window=1,10",
       "baseline/fifo/round-robin uniform?intensity=10 cores=5 mem=2048MiB "
       "node:2 autoscaler=none faults=none workflow=none fc_window=2 "
       "history_window=1 seed=0",
       "ours/sept/round-robin fixed-total?total=40 cores=10 mem=32768MiB "
       "big:1?cores=16+small:2|keep-alive=ttl?idle-s=120 "
       "autoscaler=target-util?cooldown-s=1&tick-s=1 "
       "faults=crash-restart?mtbf-s=60&mttr-s=10 workflow=chain?stages=3 "
       "fc_window=4 history_window=10 seed=1",
       "cell=0 scheduler=baseline/fifo/round-robin "
       "scenario=uniform?intensity=10 seed=0 nodes=2 cores=5 memory_mb=2048 "
       "cluster=node:2 autoscaler=none faults=none workflow=none "
       "override:fc_window=2 override:history_window=1",
       "cell=2046 scheduler=ours/sept/round-robin "
       "scenario=fixed-total?total=40 seed=0 nodes=3 cores=10 "
       "memory_mb=32768 cluster=big:1?cores=16+small:2|keep-alive=ttl?"
       "idle-s=120 autoscaler=target-util?cooldown-s=1&tick-s=1 "
       "faults=crash-restart?mtbf-s=60&mttr-s=10 workflow=chain?stages=3 "
       "override:fc_window=4 override:history_window=10",
       0x4dfba56fb641aa9bull},
      {kNodesAxisGrid,
       "schedulers=ours/sept/round-robin; scenarios=uniform?intensity=30; "
       "seeds=3,5..6; nodes=1,2; cores=5; memory-mb=32768; "
       "autoscalers=none,target-util?tick-s=1; "
       "faults=none,slow-node?factor=3; override:history_window=1,3",
       "nodes=1 autoscaler=none faults=none history_window=1 seed=3",
       "nodes=2 autoscaler=target-util?tick-s=1 faults=slow-node?factor=3 "
       "history_window=3 seed=6",
       "cell=0 scheduler=ours/sept/round-robin scenario=uniform?intensity=30 "
       "seed=3 nodes=1 cores=5 memory_mb=32768 cluster=node:1 "
       "autoscaler=none faults=none workflow=none "
       "override:history_window=1",
       "cell=45 scheduler=ours/sept/round-robin "
       "scenario=uniform?intensity=30 seed=3 nodes=2 cores=5 "
       "memory_mb=32768 cluster=node:2 autoscaler=target-util?tick-s=1 "
       "faults=slow-node?factor=3 workflow=none override:history_window=3",
       0xac2740f7e05736caull},
  };
  for (const Golden& golden : goldens) {
    const auto spec = CampaignSpec::parse(golden.grid);
    EXPECT_EQ(spec.to_string(), golden.text);
    const auto first = spec.coordinates(0);
    const auto last = spec.coordinates(spec.size() - 1);
    const std::string first_label = golden.first_label;
    const std::string last_label = golden.last_label;
    EXPECT_EQ(spec.label(first), first_label);
    EXPECT_EQ(spec.label(last), last_label);
    EXPECT_EQ(spec.label(first, /*with_seed=*/false),
              first_label.substr(0, first_label.rfind(" seed=")));
    EXPECT_EQ(spec.label(last, /*with_seed=*/false),
              last_label.substr(0, last_label.rfind(" seed=")));

    const std::size_t per = spec.seeds_per_group();
    EXPECT_EQ(coordinate_columns(spec, 0), golden.first_group);
    EXPECT_EQ(coordinate_columns(spec, spec.size() - per), golden.last_group);
    std::string groups;
    for (std::size_t g = 0; g < spec.group_count(); ++g) {
      groups += coordinate_columns(spec, g * per) + "\n";
    }
    EXPECT_EQ(fnv1a(groups), golden.groups_hash) << golden.grid;

    for (std::size_t i = 0; i < spec.size(); ++i) {
      ASSERT_EQ(spec.group_index(spec.coordinates(i)), i / per) << i;
    }
  }
}

// axis_names() is what --help and the diagnostics list; each name in it
// (override:<name> aside) must be a key parse dispatches on: a segment
// rendered for that key by one of the two grids above parses alone and
// moves the grid off the default.
TEST(CampaignSpecTest, EveryAxisNameParsesAsAnAxisKey) {
  const std::string rendered =
      CampaignSpec::parse(kEveryAxisGrid).to_string() + "; " +
      CampaignSpec::parse(kNodesAxisGrid).to_string();
  const CampaignSpec fallback = CampaignSpec::parse("");
  const std::string names = CampaignSpec::axis_names();
  int checked = 0;
  for (std::string_view name : util::split_any(names, ",")) {
    name = util::trim_ws(name);
    if (name == "override:<name>") continue;
    const std::string prefix = std::string(name) + "=";
    bool parsed = false;
    for (std::string_view part : util::split_any(rendered, ";")) {
      part = util::trim_ws(part);
      if (part.substr(0, prefix.size()) != prefix) continue;
      parsed = parsed || CampaignSpec::parse(part) != fallback;
    }
    EXPECT_TRUE(parsed) << "no grid sets axis " << name;
    ++checked;
  }
  EXPECT_EQ(checked, 10);
  EXPECT_EQ(names.substr(names.size() - 15), "override:<name>");
}

TEST(CampaignSpecDeath, UnknownAxisListsTheValidOnes) {
  EXPECT_DEATH((void)CampaignSpec::parse("warp=9"),
               "unknown campaign axis \"warp\".*schedulers");
}

TEST(CampaignSpecDeath, DuplicateAxisIsRejected) {
  EXPECT_DEATH((void)CampaignSpec::parse("seeds=0; seeds=1"),
               "axis \"seeds\" twice");
  // The memory_mb alias is the same axis as memory-mb, not a second one.
  EXPECT_DEATH(
      (void)CampaignSpec::parse("memory-mb=2048; memory_mb=65536"),
      "axis \"memory-mb\" twice");
}

TEST(CampaignSpecDeath, BadItemsAreRejectedWithTheAxisName) {
  EXPECT_DEATH((void)CampaignSpec::parse("seeds=banana"),
               "\"seeds\".*not a whole number");
  EXPECT_DEATH((void)CampaignSpec::parse("seeds=4..1"), "runs backwards");
  EXPECT_DEATH((void)CampaignSpec::parse("cores=0"),
               "not a positive integer");
  EXPECT_DEATH((void)CampaignSpec::parse("memory-mb=-4"),
               "not a positive number");
  EXPECT_DEATH((void)CampaignSpec::parse("cores="), "has no items");
  // An empty item dies naming its axis and position on every axis, instead
  // of parsing as a default ("faults=,none" would be two fault-free cells).
  for (const std::string key :
       {"schedulers", "scenarios", "seeds", "nodes", "cores", "memory-mb",
        "clusters", "autoscalers", "faults", "workflows",
        "override:history_window"}) {
    EXPECT_DEATH((void)CampaignSpec::parse(key + "=,1"),
                 "campaign axis \"" + key + "\": item 1 is empty");
    EXPECT_DEATH((void)CampaignSpec::parse(key + "= 1 , "),
                 "campaign axis \"" + key + "\": item 2 is empty");
  }
  EXPECT_DEATH((void)CampaignSpec::parse("fault=none,,none"),
               "campaign axis \"faults\": item 2 is empty");
}

TEST(CampaignSpecDeath, UnknownSchedulerScenarioOrOverrideAborts) {
  EXPECT_DEATH((void)CampaignSpec::parse("schedulers=ours/warp-speed"),
               "");
  EXPECT_DEATH((void)CampaignSpec::parse("scenarios=starlight"), "");
  EXPECT_DEATH(
      (void)CampaignSpec::parse("override:warp_factor=1"),
      "unknown experiment override \"warp_factor\"");
  EXPECT_DEATH(
      (void)CampaignSpec::parse("override:history_window=0"),
      "out of range");
}

TEST(CampaignSpecDeath, EmptyAxesAreRejected) {
  CampaignSpec spec;
  spec.seeds.clear();
  EXPECT_DEATH((void)spec.normalized(), "no seeds");
  CampaignSpec spec2;
  spec2.schedulers.clear();
  EXPECT_DEATH((void)spec2.normalized(), "no schedulers");
}

}  // namespace
}  // namespace whisk::experiments
