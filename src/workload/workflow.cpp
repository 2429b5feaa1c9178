#include "workload/workflow.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/parse.h"

namespace whisk::workload {
namespace {

// The shared `functions=root|rotate` knob: root (default) runs every stage
// as the root call's function; rotate gives stage s function offset s, so
// branches draw different service distributions (asymmetric DAGs).
bool parse_rotate(const WorkflowSpec& spec) {
  const std::string mode = util::ascii_lower(spec.text("functions"));
  WHISK_CHECK(mode == "root" || mode == "rotate",
              ("workflow \"" + spec.name + "\" parameter functions=\"" +
               spec.text("functions") + "\" must be \"root\" or \"rotate\"")
                  .c_str());
  return mode == "rotate";
}

void apply_rotate(WorkflowDag* dag, bool rotate) {
  for (std::size_t s = 0; s < dag->stages.size(); ++s) {
    dag->stages[s].function_offset = rotate ? static_cast<int>(s) : 0;
  }
}

util::ParamDecl functions_param() {
  return util::text_param(
      "functions", "root",
      "stage functions: root (all run the root call's function) or rotate "
      "(stage s runs root+s mod catalog)");
}

// Linear pipeline: s0 -> s1 -> ... -> s{k-1}.
class ChainWorkflow final : public WorkflowDef {
 public:
  std::string_view name() const override { return "chain"; }
  std::string help() const override {
    return "linear pipeline: each stage releases the next on completion";
  }
  std::vector<util::ParamDecl> params() const override {
    return {util::count_param("stages", 4, ">= 1",
                              "number of stages in the chain (>= 1)"),
            functions_param()};
  }
  WorkflowDag build(const WorkflowSpec& spec) const override {
    const std::size_t stages = spec.count("stages");
    WorkflowDag dag;
    dag.stages.resize(stages);
    for (std::size_t s = 0; s < stages; ++s) {
      dag.stages[s].label = "s" + std::to_string(s);
      if (s + 1 < stages) {
        dag.stages[s].successors.push_back(static_cast<int>(s + 1));
      }
      if (s > 0) {
        dag.stages[s].preds = 1;
        dag.stages[s].join_k = 1;
      }
    }
    apply_rotate(&dag, parse_rotate(spec));
    return dag;
  }
};

// Scatter-gather: src -> width parallel branches -> join. join=all waits
// for every branch; join=<k> releases the gather after k ok branches
// (stragglers still run, the join just stops waiting for them).
class FanoutWorkflow final : public WorkflowDef {
 public:
  std::string_view name() const override { return "fanout"; }
  std::string help() const override {
    return "scatter-gather: source fans out to `width` branches, a join "
           "waits for all (or k) of them";
  }
  std::vector<util::ParamDecl> params() const override {
    return {util::count_param("width", 4, ">= 1",
                              "parallel branches between source and join"),
            util::text_param(
                "join", "all",
                "branches the join waits for: all, or an integer k (k-of-n)"),
            functions_param()};
  }
  WorkflowDag build(const WorkflowSpec& spec) const override {
    const std::size_t width = spec.count("width");
    std::size_t join_k = width;
    const std::string join = util::ascii_lower(spec.text("join"));
    if (!join.empty() && join != "all") {
      unsigned long long k = 0;
      if (!util::parse_whole_number(join, &k) || k < 1 || k > width) {
        WHISK_CHECK(false, ("workflow \"fanout\" parameter join=\"" +
                            spec.text("join") +
                            "\" must be \"all\" or an integer in [1, width]")
                               .c_str());
      }
      join_k = static_cast<std::size_t>(k);
    }
    WorkflowDag dag;
    dag.stages.resize(width + 2);
    const int sink = static_cast<int>(width + 1);
    dag.stages[0].label = "src";
    for (std::size_t b = 0; b < width; ++b) {
      const int s = static_cast<int>(b + 1);
      dag.stages[0].successors.push_back(s);
      dag.stages[s].label = "b" + std::to_string(b);
      dag.stages[s].preds = 1;
      dag.stages[s].join_k = 1;
      dag.stages[s].successors.push_back(sink);
    }
    dag.stages[sink].label = "join";
    dag.stages[sink].preds = static_cast<int>(width);
    dag.stages[sink].join_k = static_cast<int>(join_k);
    apply_rotate(&dag, parse_rotate(spec));
    return dag;
  }
};

// The classic 4-node diamond generalized to `width` middle stages, with
// functions=rotate by default so the branches are asymmetric — the shape
// where critical-path-aware scheduling visibly beats FIFO.
class DiamondWorkflow final : public WorkflowDef {
 public:
  std::string_view name() const override { return "diamond"; }
  std::string help() const override {
    return "src -> `width` asymmetric middle stages -> sink (functions "
           "rotate by default)";
  }
  std::vector<util::ParamDecl> params() const override {
    return {util::count_param("width", 2, ">= 1",
                              "middle stages between source and sink"),
            util::text_param("functions", "rotate",
                             "stage functions: root or rotate (default "
                             "rotate: asymmetric branches)")};
  }
  WorkflowDag build(const WorkflowSpec& spec) const override {
    const std::size_t width = spec.count("width");
    WorkflowDag dag;
    dag.stages.resize(width + 2);
    const int sink = static_cast<int>(width + 1);
    dag.stages[0].label = "src";
    for (std::size_t m = 0; m < width; ++m) {
      const int s = static_cast<int>(m + 1);
      dag.stages[0].successors.push_back(s);
      dag.stages[s].label = "m" + std::to_string(m);
      dag.stages[s].preds = 1;
      dag.stages[s].join_k = 1;
      dag.stages[s].successors.push_back(sink);
    }
    dag.stages[sink].label = "sink";
    dag.stages[sink].preds = static_cast<int>(width);
    dag.stages[sink].join_k = static_cast<int>(width);
    apply_rotate(&dag, parse_rotate(spec));
    return dag;
  }
};

// Trace-defined DAG from an explicit edge list. Edges separate with '+'
// (the grid-safe canonical form, since ',' splits campaign axis items) or
// ','; an item may chain several hops: "a>b>c" is a>b plus b>c. Stage
// order is topological, ties broken by first appearance in the edge list,
// so the same spec always yields the same stage indices.
class EdgeListWorkflow final : public WorkflowDef {
 public:
  std::string_view name() const override { return "dag"; }
  std::string help() const override {
    return "explicit edge list: edges=a>b+a>c+b>d+c>d (joins wait for "
           "every predecessor)";
  }
  std::vector<util::ParamDecl> params() const override {
    return {util::text_param("edges", "a>b",
                             "'+'- or ','-separated edges, each \"from>to\" "
                             "(chains \"a>b>c\" allowed)"),
            functions_param()};
  }
  WorkflowDag build(const WorkflowSpec& spec) const override {
    const std::string edges = spec.text("edges");
    std::vector<std::string> labels;  // first-appearance order
    std::vector<std::pair<int, int>> edge_list;
    const auto node_index = [&labels](std::string_view raw) {
      const std::string label(util::trim_ws(raw));
      WHISK_CHECK(!label.empty(),
                  "workflow \"dag\": edge has an empty stage label");
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == label) return static_cast<int>(i);
      }
      labels.push_back(label);
      return static_cast<int>(labels.size() - 1);
    };
    for (std::string_view item : util::split_any(edges, "+,")) {
      if (util::trim_ws(item).empty()) continue;
      const auto hops = util::split_any(item, ">");
      WHISK_CHECK(hops.size() >= 2, ("workflow \"dag\": edge \"" +
                                     std::string(item) +
                                     "\" is not \"from>to\"")
                                        .c_str());
      for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
        const int from = node_index(hops[h]);
        const int to = node_index(hops[h + 1]);
        WHISK_CHECK(from != to, ("workflow \"dag\": self-edge on stage \"" +
                                 labels[from] + "\"")
                                    .c_str());
        if (std::find(edge_list.begin(), edge_list.end(),
                      std::make_pair(from, to)) == edge_list.end()) {
          edge_list.emplace_back(from, to);
        }
      }
    }
    WHISK_CHECK(!labels.empty(),
                "workflow \"dag\": edges= lists no stages at all");

    // Kahn topological sort, ties by first appearance; leftovers mean a
    // cycle, which we report by naming the stages stuck on it.
    const std::size_t n = labels.size();
    std::vector<int> indegree(n, 0);
    for (const auto& [from, to] : edge_list) ++indegree[to];
    std::vector<int> order;  // original index -> emission order
    std::vector<int> topo;   // emission order -> original index
    order.assign(n, -1);
    std::vector<int> pending(indegree);
    while (topo.size() < n) {
      int next = -1;
      for (std::size_t i = 0; i < n; ++i) {
        if (order[i] == -1 && pending[i] == 0) {
          next = static_cast<int>(i);
          break;
        }
      }
      if (next == -1) {
        std::vector<std::string> stuck;
        for (std::size_t i = 0; i < n; ++i) {
          if (order[i] == -1) stuck.push_back(labels[i]);
        }
        WHISK_CHECK(false, ("workflow \"dag\": edges form a cycle through "
                            "stages: " +
                            util::join(stuck))
                               .c_str());
      }
      order[next] = static_cast<int>(topo.size());
      topo.push_back(next);
      for (const auto& [from, to] : edge_list) {
        if (from == next) --pending[to];
      }
    }

    WorkflowDag dag;
    dag.stages.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      dag.stages[s].label = labels[topo[s]];
    }
    for (const auto& [from, to] : edge_list) {
      dag.stages[order[from]].successors.push_back(order[to]);
      ++dag.stages[order[to]].preds;
    }
    for (std::size_t s = 0; s < n; ++s) {
      auto& stage = dag.stages[s];
      std::sort(stage.successors.begin(), stage.successors.end());
      stage.join_k = stage.preds;  // joins wait for every predecessor
    }
    apply_rotate(&dag, parse_rotate(spec));
    return dag;
  }
};

}  // namespace

WorkflowRegistry::WorkflowRegistry() : ComponentRegistry("workflow") {
  add<ChainWorkflow>("chain");
  add<FanoutWorkflow>("fanout");
  add<DiamondWorkflow>("diamond");
  add<EdgeListWorkflow>("dag");
  register_alias("scatter-gather", "fanout");
  register_alias("edges", "dag");
}

// Building the DAG checks the rules the declarations cannot (join <= width,
// the edge list), so a cyclic edge list dies at parse time, not mid-sweep.
void WorkflowTraits::validate(const WorkflowSpec& spec) {
  (void)make_workflow_dag(spec);
}

WorkflowRegistry& WorkflowRegistry::instance() {
  static auto* registry = new WorkflowRegistry();
  return *registry;
}

void validate_workflow_dag(const WorkflowDag& dag,
                           const std::string& context) {
  WHISK_CHECK(!dag.stages.empty(),
              (context + ": workflow DAG has no stages").c_str());
  const int n = static_cast<int>(dag.stages.size());
  std::vector<int> indegree(dag.stages.size(), 0);
  std::vector<std::string> seen_labels;
  for (int s = 0; s < n; ++s) {
    const auto& stage = dag.stages[s];
    WHISK_CHECK(!stage.label.empty(),
                (context + ": stage " + std::to_string(s) +
                 " has an empty label")
                    .c_str());
    for (const auto& other : seen_labels) {
      WHISK_CHECK(other != stage.label, (context + ": duplicate stage "
                                         "label \"" +
                                         stage.label + "\"")
                                            .c_str());
    }
    seen_labels.push_back(stage.label);
    int prev = -1;
    for (const int t : stage.successors) {
      WHISK_CHECK(t > s && t < n,
                  (context + ": stage \"" + stage.label + "\" has edge to " +
                   std::to_string(t) +
                   ", which is not a later stage (stages must be "
                   "topologically ordered)")
                      .c_str());
      WHISK_CHECK(t > prev, (context + ": stage \"" + stage.label +
                             "\" successors must be strictly increasing "
                             "(no duplicate edges)")
                                .c_str());
      prev = t;
      ++indegree[static_cast<std::size_t>(t)];
    }
  }
  int sources = 0;
  for (int s = 0; s < n; ++s) {
    const auto& stage = dag.stages[s];
    WHISK_CHECK(stage.preds == indegree[static_cast<std::size_t>(s)],
                (context + ": stage \"" + stage.label + "\" declares " +
                 std::to_string(stage.preds) + " predecessors but " +
                 std::to_string(indegree[static_cast<std::size_t>(s)]) +
                 " edges point to it")
                    .c_str());
    if (stage.preds == 0) {
      ++sources;
      WHISK_CHECK(s == 0 && stage.join_k == 0,
                  (context + ": source stage \"" + stage.label +
                   "\" must be stage 0 with join_k 0")
                      .c_str());
    } else {
      WHISK_CHECK(stage.join_k >= 1 && stage.join_k <= stage.preds,
                  (context + ": stage \"" + stage.label + "\" join_k " +
                   std::to_string(stage.join_k) + " must be in [1, " +
                   std::to_string(stage.preds) + "]")
                      .c_str());
    }
  }
  WHISK_CHECK(sources == 1,
              (context + ": workflow DAG must have exactly one source "
               "(in-degree 0) stage; found " +
               std::to_string(sources))
                  .c_str());
}

WorkflowDag make_workflow_dag(const WorkflowSpec& spec) {
  WHISK_CHECK(spec.enabled(),
              "make_workflow_dag on \"none\": check enabled() first");
  const WorkflowSpec folded = spec.folded();
  folded.check_values();
  const auto def = WorkflowRegistry::instance().create(folded.name);
  WorkflowDag dag = def->build(folded);
  validate_workflow_dag(dag, "workflow \"" + folded.to_string() + "\"");
  return dag;
}

}  // namespace whisk::workload

template struct whisk::util::ComponentSpec<whisk::workload::WorkflowTraits>;
