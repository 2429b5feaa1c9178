#include "workload/workflow.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace whisk::workload {
namespace {

TEST(WorkflowSpecTest, ParsesAndRoundTrips) {
  const auto spec = WorkflowSpec::parse("Fanout?WIDTH=8&join=3");
  EXPECT_EQ(spec.name, "fanout");
  EXPECT_EQ(spec.count("width", 0), 8u);
  EXPECT_EQ(spec.text("join"), "3");
  EXPECT_EQ(spec.to_string(), "fanout?join=3&width=8");
  EXPECT_EQ(WorkflowSpec::parse(spec.to_string()), spec);
}

TEST(WorkflowSpecTest, AliasesResolveToCanonicalNames) {
  EXPECT_EQ(WorkflowSpec::parse("scatter-gather?width=4").name, "fanout");
  EXPECT_EQ(WorkflowSpec::parse("edges?edges=a>b").name, "dag");
}

TEST(WorkflowSpecTest, NoneIsDisabled) {
  EXPECT_FALSE(WorkflowSpec{}.enabled());
  EXPECT_FALSE(WorkflowSpec::parse("none").enabled());
  EXPECT_FALSE(WorkflowSpec::parse("None").enabled());
  EXPECT_TRUE(WorkflowSpec::parse("chain").enabled());
  EXPECT_EQ(WorkflowSpec{}.to_string(), "none");
}

TEST(WorkflowSpecTest, BadSpecsAbort) {
  EXPECT_DEATH((void)WorkflowSpec::parse(""), "empty");
  EXPECT_DEATH((void)WorkflowSpec::parse("mystery-shape"), "mystery-shape");
  EXPECT_DEATH((void)WorkflowSpec::parse("none?width=2"), "none");
  EXPECT_DEATH((void)WorkflowSpec::parse("chain?depth=3"), "depth");
  EXPECT_DEATH((void)WorkflowSpec::parse("chain?stages=0"), "stages");
  EXPECT_DEATH((void)WorkflowSpec::parse("fanout?width=0"), "width");
  EXPECT_DEATH((void)WorkflowSpec::parse("fanout?join=9"), "join");
  EXPECT_DEATH((void)WorkflowSpec::parse("chain?functions=zigzag"),
               "functions");
}

TEST(WorkflowSpecTest, OutOfRangeValuesQuoteTheInput) {
  EXPECT_DEATH((void)WorkflowSpec::parse("fanout?width=0"),
               "workflow \"fanout\": width must be >= 1, got \"0\"");
}

TEST(WorkflowRegistryTest, ListsAllBuiltins) {
  const auto names = WorkflowRegistry::instance().names();
  const std::set<std::string> set(names.begin(), names.end());
  for (const char* name : {"chain", "fanout", "diamond", "dag"}) {
    EXPECT_TRUE(set.count(name) == 1) << name;
  }
}

TEST(WorkflowDagTest, ChainIsALine) {
  const auto dag = make_workflow_dag(WorkflowSpec::parse("chain?stages=4"));
  ASSERT_EQ(dag.size(), 4u);
  for (std::size_t s = 0; s < dag.size(); ++s) {
    const auto& stage = dag.stages[s];
    EXPECT_EQ(stage.preds, s == 0 ? 0 : 1);
    EXPECT_EQ(stage.join_k, s == 0 ? 0 : 1);
    if (s + 1 < dag.size()) {
      ASSERT_EQ(stage.successors.size(), 1u);
      EXPECT_EQ(stage.successors[0], static_cast<int>(s) + 1);
    } else {
      EXPECT_TRUE(stage.successors.empty());
    }
  }
}

TEST(WorkflowDagTest, FanoutJoinsAllByDefaultAndKOnRequest) {
  const auto all = make_workflow_dag(WorkflowSpec::parse("fanout?width=8"));
  ASSERT_EQ(all.size(), 10u);  // src + 8 branches + join
  EXPECT_EQ(all.stages.front().successors.size(), 8u);
  EXPECT_EQ(all.stages.back().preds, 8);
  EXPECT_EQ(all.stages.back().join_k, 8);

  const auto kofn =
      make_workflow_dag(WorkflowSpec::parse("fanout?width=8&join=3"));
  EXPECT_EQ(kofn.stages.back().preds, 8);
  EXPECT_EQ(kofn.stages.back().join_k, 3);
}

TEST(WorkflowDagTest, DiamondRotatesFunctionsByDefault) {
  const auto dag = make_workflow_dag(WorkflowSpec::parse("diamond?width=2"));
  ASSERT_EQ(dag.size(), 4u);
  // Asymmetric branches: default functions=rotate gives stage s offset s.
  std::set<int> offsets;
  for (const auto& stage : dag.stages) offsets.insert(stage.function_offset);
  EXPECT_EQ(offsets.size(), dag.size());

  const auto root = make_workflow_dag(
      WorkflowSpec::parse("diamond?width=2&functions=root"));
  for (const auto& stage : root.stages) {
    EXPECT_EQ(stage.function_offset, 0) << stage.label;
  }
}

TEST(WorkflowDagTest, DagEdgesChainAndSplitOnPlus) {
  // "a>b>c" chains; '+' separates edge lists ( ',' separates campaign
  // axis items, so specs inside a grid use '+').
  const auto dag =
      make_workflow_dag(WorkflowSpec::parse("dag?edges=a>b>d+a>c>d"));
  ASSERT_EQ(dag.size(), 4u);
  EXPECT_EQ(dag.stages[0].label, "a");
  EXPECT_EQ(dag.stages[0].successors.size(), 2u);
  EXPECT_EQ(dag.stages.back().label, "d");
  EXPECT_EQ(dag.stages.back().preds, 2);
  EXPECT_EQ(dag.stages.back().join_k, 2);  // trace joins are all-of-n
}

TEST(WorkflowDagTest, BadDagEdgesAbort) {
  EXPECT_DEATH((void)make_workflow_dag(WorkflowSpec::parse("dag?edges=a")),
               "edge");
  EXPECT_DEATH((void)make_workflow_dag(WorkflowSpec::parse("dag?edges=a>a")),
               "self-edge");
  EXPECT_DEATH(
      (void)make_workflow_dag(WorkflowSpec::parse("dag?edges=a>b+b>c+c>a")),
      "cycle");
}

TEST(WorkflowDagTest, NormalizedValidatesEagerly) {
  // normalized() builds the DAG once, so a structurally bad spec dies at
  // parse/normalize time instead of mid-sweep.
  EXPECT_DEATH((void)WorkflowSpec::parse("dag?edges=a>b+b>a"), "cycle");
  EXPECT_EQ(WorkflowSpec::parse("chain").normalized().name, "chain");
}

TEST(WorkflowDagTest, ValidateCatchesHandBuiltMistakes) {
  WorkflowDag empty;
  EXPECT_DEATH(validate_workflow_dag(empty, "test"), "test");

  // Backward edge.
  WorkflowDag backward;
  backward.stages.push_back({"a", 0, {1}, 0, 0});
  backward.stages.push_back({"b", 0, {0}, 1, 1});
  EXPECT_DEATH(validate_workflow_dag(backward, "test"), "b");

  // preds inconsistent with the edge set.
  WorkflowDag preds;
  preds.stages.push_back({"a", 0, {1}, 0, 0});
  preds.stages.push_back({"b", 0, {}, 2, 2});
  EXPECT_DEATH(validate_workflow_dag(preds, "test"), "b");

  // Two sources.
  WorkflowDag sources;
  sources.stages.push_back({"a", 0, {2}, 0, 0});
  sources.stages.push_back({"b", 0, {2}, 0, 0});
  sources.stages.push_back({"c", 0, {}, 2, 2});
  EXPECT_DEATH(validate_workflow_dag(sources, "test"), "source");

  // join_k above the fan-in.
  WorkflowDag join;
  join.stages.push_back({"a", 0, {1}, 0, 0});
  join.stages.push_back({"b", 0, {}, 1, 2});
  EXPECT_DEATH(validate_workflow_dag(join, "test"), "join");
}

}  // namespace
}  // namespace whisk::workload
