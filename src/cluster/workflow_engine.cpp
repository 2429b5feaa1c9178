#include "cluster/workflow_engine.h"

#include <algorithm>

#include "cluster/cluster.h"
#include "util/check.h"

namespace whisk::cluster {

WorkflowEngine::WorkflowEngine(const workload::WorkflowSpec& spec,
                               const workload::FunctionCatalog& catalog)
    : dag_(workload::make_workflow_dag(spec)), catalog_(&catalog) {
  // Precompute the cp_hint table: for every possible root function, the
  // expected remaining work from each stage — its own reference median plus
  // the longest downstream chain. Stages are topologically ordered, so one
  // backward sweep suffices.
  const int n = static_cast<int>(dag_.size());
  hints_.resize(catalog.size());
  for (std::size_t fn = 0; fn < catalog.size(); ++fn) {
    auto& remaining = hints_[fn];
    remaining.assign(dag_.size(), 0.0);
    for (int s = n - 1; s >= 0; --s) {
      double tail = 0.0;
      for (const int t : dag_.stages[s].successors) {
        tail = std::max(tail, remaining[t]);
      }
      remaining[s] =
          catalog.reference_median(
              stage_function(static_cast<workload::FunctionId>(fn), s)) +
          tail;
    }
  }
}

std::size_t WorkflowEngine::register_roots(
    const workload::Scenario& scenario) {
  WHISK_CHECK(instances_.empty(),
              "workflow runs support a single run_scenario per cluster "
              "(stage ids are derived from dense root ids)");
  instances_.resize(scenario.size());
  for (const auto& call : scenario.calls) {
    WHISK_CHECK(call.id >= 0 &&
                    static_cast<std::size_t>(call.id) < instances_.size(),
                "workflow roots need dense sequential call ids 0..n-1 "
                "(finalize_scenario assigns them)");
    Instance& inst = instances_[static_cast<std::size_t>(call.id)];
    WHISK_CHECK(inst.root_function == workload::kInvalidFunction,
                "duplicate call id in workflow scenario");
    inst.root_function = call.function;
    inst.start = call.release;
    inst.stages.resize(dag_.size());
  }
  roots_ = instances_.size();
  return roots_ * (dag_.size() - 1);
}

double WorkflowEngine::root_hint(const workload::CallRequest& call) const {
  return hints_[static_cast<std::size_t>(call.function) % hints_.size()][0];
}

std::size_t WorkflowEngine::instance_of(workload::CallId id) const {
  const auto raw = static_cast<std::size_t>(id);
  if (raw < roots_) return raw;
  return (raw - roots_) / (dag_.size() - 1);
}

int WorkflowEngine::stage_of(workload::CallId id) const {
  const auto raw = static_cast<std::size_t>(id);
  if (raw < roots_) return 0;
  return 1 + static_cast<int>((raw - roots_) % (dag_.size() - 1));
}

workload::CallId WorkflowEngine::stage_call_id(std::size_t instance,
                                               int stage) const {
  return static_cast<workload::CallId>(
      roots_ + instance * (dag_.size() - 1) +
      static_cast<std::size_t>(stage - 1));
}

workload::FunctionId WorkflowEngine::stage_function(
    workload::FunctionId root, int stage) const {
  const auto size = static_cast<int>(catalog_->size());
  return (root + dag_.stages[static_cast<std::size_t>(stage)]
                     .function_offset) %
         size;
}

void WorkflowEngine::annotate(metrics::CallRecord& record) const {
  WHISK_CHECK(record.id >= 0 &&
                  static_cast<std::size_t>(record.id) <
                      roots_ + roots_ * (dag_.size() - 1),
              "workflow cluster collected a call id it never issued");
  record.workflow =
      static_cast<workload::CallId>(instance_of(record.id));
  record.stage = stage_of(record.id);
}

void WorkflowEngine::on_resolved(const metrics::CallRecord& record,
                                 Cluster& cluster) {
  const std::size_t i = instance_of(record.id);
  const int s = stage_of(record.id);
  Instance& inst = instances_[i];
  StageState& state = inst.stages[static_cast<std::size_t>(s)];
  WHISK_CHECK(!state.resolved,
              "workflow stage resolved twice: the terminal-record funnel "
              "emitted two records for one call id");
  state.resolved = true;
  ++inst.resolved;
  const bool ok = record.disposition == metrics::Disposition::kOk;
  switch (record.disposition) {
    case metrics::Disposition::kOk:
      ++inst.ok;
      break;
    case metrics::Disposition::kShed:
      ++inst.shed;
      break;
    case metrics::Disposition::kDropped:
      ++inst.dropped;
      break;
  }
  inst.finish = std::max(inst.finish, record.completion);
  // Realized critical path: execution seconds along the longest released
  // chain. Failed stages contribute their upstream credit but no exec.
  double cp_done = state.cp_at_release;
  if (ok) cp_done += record.exec_end - record.exec_start;
  inst.critical_path_s = std::max(inst.critical_path_s, cp_done);

  for (const int t : dag_.stages[static_cast<std::size_t>(s)].successors) {
    StageState& succ = inst.stages[static_cast<std::size_t>(t)];
    if (ok) {
      ++succ.ok_preds;
    } else {
      ++succ.failed_preds;
    }
    // A released (or already cascade-dropped) stage froze its critical-path
    // credit at release: a k-of-n join does not wait for stragglers.
    if (succ.released) continue;
    if (ok) succ.cp_at_release = std::max(succ.cp_at_release, cp_done);
    const auto& def = dag_.stages[static_cast<std::size_t>(t)];
    if (succ.ok_preds >= def.join_k) {
      succ.released = true;
      release_stage(i, t, cluster);
    } else if (succ.failed_preds > def.preds - def.join_k) {
      // join_k ok predecessors can never be gathered anymore.
      succ.released = true;
      cascade_drop(i, t, cluster);
    }
  }
  maybe_emit(i, cluster);
}

void WorkflowEngine::release_stage(std::size_t instance, int stage,
                                   Cluster& cluster) {
  workload::CallRequest call;
  call.id = stage_call_id(instance, stage);
  call.function =
      stage_function(instances_[instance].root_function, stage);
  call.release = cluster.engine_->now();
  call.cp_hint =
      hints_[static_cast<std::size_t>(instances_[instance].root_function) %
             hints_.size()][static_cast<std::size_t>(stage)];
  // Same client hop the scenario roots take: released downstream stages are
  // ordinary arrivals on the cell's single engine.
  cluster.engine_->schedule_in(
      kClientToControllerS,
      [c = &cluster, call] { c->submit_to_controller(call); });
}

void WorkflowEngine::cascade_drop(std::size_t instance, int stage,
                                  Cluster& cluster) {
  metrics::CallRecord rec;
  rec.id = stage_call_id(instance, stage);
  rec.function = stage_function(instances_[instance].root_function, stage);
  rec.node = -1;
  rec.release = cluster.engine_->now();
  rec.completion = cluster.engine_->now();
  rec.disposition = metrics::Disposition::kDropped;
  // Through the terminal funnel, so the drop is annotated, counted and
  // recursively cascades to this stage's own successors.
  cluster.collect_record(rec);
}

void WorkflowEngine::maybe_emit(std::size_t instance, Cluster& cluster) {
  Instance& inst = instances_[instance];
  if (inst.emitted ||
      inst.resolved != static_cast<int>(dag_.size())) {
    return;
  }
  inst.emitted = true;
  metrics::WorkflowRecord wf;
  wf.id = static_cast<workload::CallId>(instance);
  wf.stages = static_cast<int>(dag_.size());
  wf.ok = inst.ok;
  wf.shed = inst.shed;
  wf.dropped = inst.dropped;
  wf.start = inst.start;
  wf.finish = inst.finish;
  wf.critical_path_s = inst.critical_path_s;
  cluster.collector_.add_workflow(wf);
}

}  // namespace whisk::cluster
