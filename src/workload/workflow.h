#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/component_spec.h"
#include "util/registry.h"

namespace whisk::workload {

class WorkflowRegistry;
struct WorkflowTraits;

// Declarative workflow selection in the "name[?key=value&...]" component
// spec grammar (see util::ComponentSpec): "chain?stages=4",
// "fanout?width=8&join=all", "dag?edges=a>b+a>c+b>d+c>d". The reserved
// name "none" (the default) means calls stay independent — the simulator's
// pre-workflow behavior, bit for bit. normalized() builds the DAG once so a
// bad spec dies loudly at parse time, not mid-sweep.
using WorkflowSpec = util::ComponentSpec<WorkflowTraits>;

struct WorkflowTraits {
  static constexpr std::string_view kDefaultName = "none";
  static constexpr bool kNoneReserved = true;
  static constexpr std::string_view kExample =
      "\"chain?stages=4\" or \"fanout?width=8&join=all\"";
  using Registry = WorkflowRegistry;
  static void validate(const WorkflowSpec& spec);
};

// One stage of an instantiated workflow DAG. Stages are stored in
// topological order with stage 0 the unique source (the root call of the
// scenario); edges only point forward.
struct WorkflowStage {
  std::string label;

  // The stage runs function (root_function + offset) mod catalog size, so
  // a DAG instantiates against whatever function the scenario drew for the
  // root call. functions=root keeps every offset 0; functions=rotate gives
  // stage s offset s (asymmetric branches).
  int function_offset = 0;

  std::vector<int> successors;  // topo indices, strictly > this stage's
  int preds = 0;                // in-degree
  // Ok predecessors required to release this stage: preds for join=all
  // fan-ins, k for k-of-n scatter-gather joins, 0 only for the source.
  int join_k = 0;
};

// A validated workflow shape: topologically ordered stages, one source.
struct WorkflowDag {
  std::vector<WorkflowStage> stages;

  [[nodiscard]] std::size_t size() const { return stages.size(); }
};

// A registered workflow shape: metadata for --list plus the DAG builder.
class WorkflowDef {
 public:
  virtual ~WorkflowDef() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string help() const = 0;
  // Every parameter, declared once with its type, default and range; the
  // spec code range-checks the values before build() reads them.
  [[nodiscard]] virtual std::vector<util::ParamDecl> params() const = 0;

  // Build the DAG for a range-checked `spec`, checking the rules that span
  // parameters or parse a text value.
  [[nodiscard]] virtual WorkflowDag build(const WorkflowSpec& spec) const = 0;
};

// The open extension surface for workflow shapes, mirroring the fault /
// scenario / policy registries: register a WorkflowDef under a name and
// `workflows=` campaign axes and whisk_sweep --list discover it.
class WorkflowRegistry : public util::ComponentRegistry<WorkflowDef> {
 public:
  static WorkflowRegistry& instance();

 private:
  WorkflowRegistry();  // registers the built-ins
};

// Validate structural invariants (non-empty, single source at index 0,
// forward-only edges, consistent preds/join_k, unique labels) and abort
// with a loud message naming `context` when one fails. Every DAG funnels
// through this in make_workflow_dag; exposed for shape authors' tests.
void validate_workflow_dag(const WorkflowDag& dag, const std::string& context);

// Build + validate the DAG for an enabled spec. Aborts on "none".
[[nodiscard]] WorkflowDag make_workflow_dag(const WorkflowSpec& spec);

}  // namespace whisk::workload

extern template struct whisk::util::ComponentSpec<whisk::workload::WorkflowTraits>;
