#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metrics/record.h"
#include "util/stats.h"
#include "workload/function.h"

namespace whisk::metrics {

// Collects completed-call records for one experiment run and derives the
// paper's metrics: response time R(i), stretch S(i) (w.r.t. the Table I
// idle-system medians), cold-start counts and the maximum completion time.
//
// add() maintains a per-function index and the scalar aggregates, so the
// per-function queries and the counters are O(answer)/O(1) instead of a
// full-record scan per call (the fairness experiment queries them per
// function per repetition).
//
// Storage is struct-of-arrays: add() appends each CallRecord field to its
// own dense column. The metric scans (response_times, stretches) touch only
// the two or three columns they read instead of striding over 96-byte
// records, and a recycled collector (experiments::CellWorkspace) keeps
// every column's capacity across runs — with the reserve() hint Cluster
// plumbs from the scenario's expected call count, add() never allocates on
// the campaign steady state. Whole records are materialized on demand.
class Collector {
 public:
  // Recyclable empty shell (CellWorkspace parks storage in one between
  // runs); reset() must point it at a catalog before use.
  Collector() = default;
  explicit Collector(const workload::FunctionCatalog& catalog)
      : catalog_(&catalog) {}

  void add(const CallRecord& record);
  // Capacity hints — plumbed from the scenario's expected call count (and
  // expected workflow instances) by Cluster::run_scenario so the columns
  // never grow mid-run.
  void reserve(std::size_t n);
  void reserve_workflows(std::size_t n) { workflows_.reserve(n); }

  // Clear every container but keep its capacity, and re-point the catalog:
  // the workspace-reuse primitive (clear-not-free).
  void reset(const workload::FunctionCatalog& catalog);

  // Every resolved call — completed, shed or dropped. The latency metrics
  // below cover only ok records; shed/dropped calls have no meaningful
  // response time and would poison the distributions.
  [[nodiscard]] std::size_t size() const { return completion_.size(); }

  // Record i reassembled from the columns.
  [[nodiscard]] CallRecord record(std::size_t i) const;
  // All records, insertion order, in one exact-sized allocation.
  [[nodiscard]] std::vector<CallRecord> records() const;

  [[nodiscard]] std::size_t ok_calls() const { return ok_; }
  [[nodiscard]] std::size_t shed_calls() const { return shed_; }
  [[nodiscard]] std::size_t dropped_calls() const { return dropped_; }

  // R(i) for every completed call, seconds.
  [[nodiscard]] std::vector<double> response_times() const;

  // S(i) = R(i) / reference_median(f(i)). Can be < 1 because the reference
  // is a client-side median, not the true processing time (Sec. V-A).
  [[nodiscard]] std::vector<double> stretches() const;

  // Metrics restricted to one function (for the fairness experiment and the
  // per-function discrimination check, Sec. II/VII-D). Values come back in
  // insertion order, exactly as the pre-index full scans returned them.
  [[nodiscard]] std::vector<double> response_times_of(
      workload::FunctionId f) const;
  [[nodiscard]] std::vector<double> stretches_of(
      workload::FunctionId f) const;

  // max c(i): the request completion time of the whole burst (Table II).
  [[nodiscard]] double max_completion() const { return max_completion_; }

  [[nodiscard]] std::size_t cold_starts() const { return cold_; }
  [[nodiscard]] std::size_t prewarm_starts() const { return prewarm_; }
  [[nodiscard]] std::size_t warm_starts() const { return warm_; }

  // Failure accounting (node fail lifecycle events): completed calls that
  // needed more than one submission, and the total extra submissions.
  [[nodiscard]] std::size_t resubmitted_calls() const {
    return resubmitted_calls_;
  }
  [[nodiscard]] std::size_t resubmissions() const { return resubmissions_; }

  [[nodiscard]] std::size_t calls_of(workload::FunctionId f) const;

  // Workflow-level accounting (clusters running a workflow DAG; empty
  // otherwise). add_workflow enforces the instance invariants loudly:
  // ok/shed/dropped partition the stage count, finish >= start, and the
  // end-to-end latency dominates the realized critical path.
  void add_workflow(const WorkflowRecord& record);
  [[nodiscard]] const std::vector<WorkflowRecord>& workflows() const {
    return workflows_;
  }
  // End-to-end latency of every workflow instance, insertion order.
  [[nodiscard]] std::vector<double> workflow_e2e() const;
  [[nodiscard]] double workflow_e2e_p99() const;
  // Mean realized critical path / mean slack (e2e minus critical path)
  // over all instances; 0 with no workflows.
  [[nodiscard]] double workflow_critical_path_mean() const;
  [[nodiscard]] double workflow_slack_mean() const;

 private:
  [[nodiscard]] const std::vector<std::uint32_t>* bucket(
      workload::FunctionId f) const;

  const workload::FunctionCatalog* catalog_ = nullptr;

  // Column store, index-aligned: entry i of every column is record i.
  std::vector<workload::CallId> id_;
  std::vector<workload::FunctionId> function_;
  std::vector<int> node_;
  std::vector<sim::SimTime> release_;
  std::vector<sim::SimTime> received_;
  std::vector<sim::SimTime> exec_start_;
  std::vector<sim::SimTime> exec_end_;
  std::vector<sim::SimTime> completion_;
  std::vector<sim::SimTime> service_;
  std::vector<StartKind> start_kind_;
  std::vector<int> attempts_;
  std::vector<Disposition> disposition_;
  std::vector<workload::CallId> workflow_root_;
  std::vector<int> stage_;

  // Record positions per function, ok records only; FunctionIds are dense
  // catalog indices.
  std::vector<std::vector<std::uint32_t>> by_function_;
  double max_completion_ = 0.0;
  std::size_t ok_ = 0;
  std::size_t shed_ = 0;
  std::size_t dropped_ = 0;
  std::size_t cold_ = 0;
  std::size_t prewarm_ = 0;
  std::size_t warm_ = 0;
  std::size_t resubmitted_calls_ = 0;
  std::size_t resubmissions_ = 0;
  std::vector<WorkflowRecord> workflows_;
};

}  // namespace whisk::metrics
