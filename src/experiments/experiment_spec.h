#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_spec.h"
#include "experiments/scheduler_spec.h"
#include "node/params.h"
#include "workload/scenario_registry.h"
#include "workload/scenario_spec.h"
#include "workload/workflow.h"

namespace whisk::experiments {

// A declarative description of one experiment: the scheduler (as registry
// names), the deployment, the workload (as a registry-named ScenarioSpec),
// and a *named* map of ablation overrides (replacing the old flat struct of
// sentinel -1.0 fields). Chainable builder setters share their getter's
// name:
//
//   auto spec = ExperimentSpec()
//                   .scheduler("ours/sept")
//                   .cores(10)
//                   .scenario("uniform?intensity=60")
//                   .with_override("history_window", 5);
//   run_experiment(spec, catalog);
//
// Every setting has one spelling. The deployment — node groups,
// keep-alive, autoscaler, faults, resilience — is one cluster::ClusterSpec
// (nodes(n) sets a homogeneous one), and the workload's load knob is
// the scenario's own intensity= parameter (the paper's uniform burst at
// intensity 30 by default). Unknown scenario names, parameter keys, and
// override names all abort immediately, listing the valid alternatives.
class ExperimentSpec {
 public:
  ExperimentSpec() = default;

  // --- scheduler -----------------------------------------------------------
  ExperimentSpec& scheduler(SchedulerSpec spec);
  ExperimentSpec& scheduler(std::string_view text);  // SchedulerSpec::parse
  [[nodiscard]] const SchedulerSpec& scheduler() const { return scheduler_; }

  // --- deployment ----------------------------------------------------------
  // The one deployment (cluster::ClusterSpec grammar): heterogeneous node
  // groups, keep-alive policy, lifecycle events, ... Default: one node.
  // cores() and memory_mb() set the *base* NodeParams that groups inherit
  // and override. The last cluster() or nodes() call wins.
  ExperimentSpec& cluster(cluster::ClusterSpec spec);
  ExperimentSpec& cluster(std::string_view text);  // ClusterSpec::parse
  [[nodiscard]] const cluster::ClusterSpec& cluster() const {
    return cluster_;
  }

  // Composite-function shape (workload::WorkflowSpec grammar, e.g.
  // "chain?stages=4" or "fanout?width=8&join=all"; "none" keeps calls
  // independent). Every scenario call then roots one workflow instance.
  ExperimentSpec& workflow(workload::WorkflowSpec spec);
  ExperimentSpec& workflow(std::string_view text);  // WorkflowSpec::parse
  [[nodiscard]] const workload::WorkflowSpec& workflow() const {
    return workflow_;
  }

  ExperimentSpec& cores(int value);
  [[nodiscard]] int cores() const { return cores_; }
  // nodes(n) is cluster(ClusterSpec::homogeneous(n)); nodes() counts the
  // deployment's nodes at t = 0.
  ExperimentSpec& nodes(int value);
  [[nodiscard]] int nodes() const {
    return static_cast<int>(cluster_.initial_nodes());
  }
  ExperimentSpec& memory_mb(double value);
  [[nodiscard]] double memory_mb() const { return memory_mb_; }

  // --- workload ------------------------------------------------------------
  ExperimentSpec& scenario(workload::ScenarioSpec spec);
  ExperimentSpec& scenario(std::string_view text);  // ScenarioSpec::parse
  [[nodiscard]] const workload::ScenarioSpec& scenario() const {
    return scenario_;
  }
  // The paper's load knob v (1.1 * cores * v requests): the scenario's
  // intensity= parameter, or the paper default when it has none.
  [[nodiscard]] int intensity() const;

  // The deployment-side knobs handed to the scenario generator: the
  // deployment's total cores at t = 0, as one node.
  [[nodiscard]] workload::ScenarioContext scenario_context(
      const workload::FunctionCatalog& catalog) const;

  // --- repetition ----------------------------------------------------------
  ExperimentSpec& seed(std::uint64_t value);
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // --- ablation overrides ----------------------------------------------------
  // Named NodeParams knobs; see override_names() for the valid keys.
  // Integer-valued knobs (history_window, dispatch_daemon_gate) take the
  // value rounded towards zero.
  ExperimentSpec& with_override(std::string_view name, double value);
  [[nodiscard]] const std::map<std::string, double>& overrides() const {
    return overrides_;
  }
  [[nodiscard]] static const std::vector<std::string>& override_names();

  // NodeParams for this spec: cores/memory plus every override applied.
  [[nodiscard]] node::NodeParams node_params() const;

 private:
  SchedulerSpec scheduler_;
  int cores_ = 10;  // per node, for action containers
  cluster::ClusterSpec cluster_ = cluster::ClusterSpec::homogeneous(1);
  workload::WorkflowSpec workflow_;  // "none" unless set
  double memory_mb_ = 32.0 * 1024.0;
  workload::ScenarioSpec scenario_;  // defaults to "uniform"
  std::uint64_t seed_ = 0;  // repetition index; drives scenario + node noise
  std::map<std::string, double> overrides_;
};

}  // namespace whisk::experiments
