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
// (nodes() is sugar for a homogeneous one), and the workload's load knob is
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
  // The full declarative form: heterogeneous node groups, keep-alive
  // policy and lifecycle events (cluster::ClusterSpec grammar). cores()
  // and memory_mb() still set the *base* NodeParams that groups inherit
  // and override; nodes() is legacy sugar for a one-group deployment and
  // conflicts with an explicit cluster().
  ExperimentSpec& cluster(cluster::ClusterSpec spec);
  ExperimentSpec& cluster(std::string_view text);  // ClusterSpec::parse
  // The effective deployment: the explicit spec when set, else the
  // homogeneous one-group expansion of nodes().
  [[nodiscard]] cluster::ClusterSpec cluster() const;
  [[nodiscard]] bool has_explicit_cluster() const { return cluster_set_; }

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
  ExperimentSpec& nodes(int value);
  [[nodiscard]] int nodes() const { return nodes_; }
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

  // The deployment-side knobs handed to the scenario generator.
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
  int nodes_ = 1;
  bool nodes_set_ = false;
  cluster::ClusterSpec cluster_;
  bool cluster_set_ = false;
  workload::WorkflowSpec workflow_;  // "none" unless set
  double memory_mb_ = 32.0 * 1024.0;
  workload::ScenarioSpec scenario_;  // defaults to "uniform"
  std::uint64_t seed_ = 0;  // repetition index; drives scenario + node noise
  std::map<std::string, double> overrides_;
};

}  // namespace whisk::experiments
