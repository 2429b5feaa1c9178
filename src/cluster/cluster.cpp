#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/workflow_engine.h"
#include "node/invoker_registry.h"
#include "util/check.h"

namespace whisk::cluster {
namespace {

// Recent controller-observed latencies retained for the hedge quantile.
// Big enough for a stable tail estimate, small enough that keeping the
// window sorted on every delivery stays off any profile.
constexpr std::size_t kLatencyWindowCapacity = 256;

}  // namespace

Cluster::Cluster(sim::Engine& engine,
                 const workload::FunctionCatalog& catalog,
                 ClusterParams params, std::uint64_t seed)
    : engine_(&engine),
      catalog_(&catalog),
      params_(params),
      collector_(catalog),
      node_seed_root_(seed) {
  params_.deployment = params_.deployment.normalized();
  WHISK_CHECK(params_.deployment.initial_nodes() > 0,
              "cluster needs at least one node");
  // The balancer gets its own tagged stream so randomized balancers vary
  // across repetition seeds; the built-in deterministic ones ignore it.
  balancer_ = make_balancer(
      params_.balancer,
      BalancerParams{
          node_seed_root_.fork(sim::hash_tag("balancer")).next_u64()});
  group_members_.resize(params_.deployment.groups.size());
  for (std::size_t g = 0; g < params_.deployment.groups.size(); ++g) {
    for (int j = 0; j < params_.deployment.groups[g].count; ++j) {
      add_node(g);
    }
  }
  rebuild_view();
  for (const LifecycleEvent& event : params_.deployment.events) {
    engine_->schedule_at(event.time,
                         [this, event] { apply_lifecycle(event); });
  }

  const ClusterSpec& deployment = params_.deployment;
  if (deployment.autoscaler.enabled()) {
    autoscaler_ = make_autoscaler(deployment.autoscaler);
    tick_s_ = deployment.autoscaler.number("tick-s");
    cooldown_s_ = deployment.autoscaler.number("cooldown-s");
    last_scale_.assign(deployment.groups.size(),
                       -std::numeric_limits<double>::infinity());
    const double window = autoscaler_->history_window_s();
    if (window > 0.0) {
      controller_history_ = std::make_unique<core::RuntimeHistory>();
      controller_history_->register_arrival_window(window);
      controller_history_->register_fc_window(window);
    }
    // Fix each group's share of the t=0 core capacity; demand-driven
    // controllers apportion fleet-wide estimates by it, so the split must
    // not drift as groups scale (that would feed back into itself).
    capacity_share_.assign(deployment.groups.size(), 0.0);
    double total_cores = 0.0;
    for (std::size_t g = 0; g < deployment.groups.size(); ++g) {
      capacity_share_[g] =
          static_cast<double>(
              deployment.node_params(g, params_.node).cores) *
          std::max(deployment.groups[g].count, 0);
      total_cores += capacity_share_[g];
    }
    for (double& share : capacity_share_) {
      share = total_cores > 0.0 ? share / total_cores
                                : 1.0 / static_cast<double>(
                                            capacity_share_.size());
    }
  }

  if (deployment.resilience.enabled()) {
    resilience_ =
        std::make_unique<ResilienceConfig>(deployment.resilience.config());
    if (timers_armed()) {
      max_attempts_ = static_cast<int>(resilience_->max_attempts);
    }
    if (resilience_->breaker_failures > 0) breakers_.resize(nodes_.size());
    if (resilience_->hedge_p > 0.0) {
      latency_window_.emplace(kLatencyWindowCapacity);
    }
  }

  if (params_.workflow.enabled()) {
    workflow_ = std::make_unique<WorkflowEngine>(params_.workflow, catalog);
  }

  if (!deployment.faults.empty()) {
    // Each process gets a private stream forked from the cell seed by list
    // position — independent of node streams, the balancer stream and each
    // other, so a campaign stays byte-identical for any thread count.
    const sim::Rng fault_root = node_seed_root_.fork(sim::hash_tag("fault"));
    for (const FaultSpec& spec : deployment.faults) {
      auto process = make_fault(spec);
      if (process->drops_completions()) droppers_.push_back(process.get());
      fault_processes_.push_back(std::move(process));
    }
    for (std::size_t i = 0; i < fault_processes_.size(); ++i) {
      fault_processes_[i]->start(*this, fault_root.fork(i + 1));
    }
  }
}

// Out of line for the unique_ptr<WorkflowEngine> member's incomplete type.
Cluster::~Cluster() = default;

std::unique_ptr<node::Invoker> Cluster::make_invoker(
    std::size_t group, std::size_t index, std::size_t incarnation) {
  // Per-node streams are tagged by the *global* node index, so the initial
  // fleet forks exactly as the homogeneous pre-ClusterSpec cluster did and
  // joined nodes draw fresh independent streams. A restarted incarnation
  // forks once more so it never replays its predecessor's draws.
  sim::Rng node_rng = node_seed_root_.fork(sim::hash_tag("node") + index);
  if (incarnation > 0) {
    node_rng = node_rng.fork(sim::hash_tag("restart") + incarnation);
  }
  auto delivery = [this](const metrics::CallRecord& rec) { deliver(rec); };
  auto inv = node::InvokerRegistry::instance().create(
      params_.invoker,
      node::InvokerArgs{
          *engine_, *catalog_,
          params_.deployment.node_params(group, params_.node), node_rng,
          delivery, params_.policy});
  inv->set_node_index(static_cast<int>(index));
  // Per-call in-flight bookkeeping backs fail re-submission and drained
  // detection (scheduled, autoscaled or fault-driven); churn-free
  // deployments skip its hot-path cost entirely.
  if (params_.deployment.needs_in_flight_tracking()) {
    inv->enable_in_flight_tracking();
  }
  return inv;
}

std::size_t Cluster::add_node(std::size_t group) {
  const std::size_t index = nodes_.size();
  NodeSlot slot;
  slot.invoker = make_invoker(group, index, 0);
  slot.group = group;
  slot.joined_at = engine_->now();
  nodes_.push_back(std::move(slot));
  group_members_[group].push_back(index);
  if (resilience_ != nullptr && resilience_->breaker_failures > 0) {
    breakers_.resize(nodes_.size());  // late joins get a fresh breaker
  }
  return index;
}

void Cluster::rebuild_view() {
  std::vector<NodeRef> refs;
  refs.reserve(nodes_.size());
  std::vector<NodeRef> ejected;
  const bool breakers = !breakers_.empty();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeSlot& slot = nodes_[i];
    if (slot.state != NodeState::kActive) continue;
    const NodeRef ref{slot.invoker.get(), i, slot.group};
    if (breakers && breakers_[i].state == Breaker::State::kOpen) {
      ejected.push_back(ref);
      continue;
    }
    refs.push_back(ref);
  }
  // Fail open: when every active node's breaker is open the fleet routes
  // to all of them anyway — serving through suspect nodes beats serving
  // through none.
  if (refs.empty() && !ejected.empty()) refs = std::move(ejected);
  view_ = NodeView(std::move(refs));
  // A restart after a total outage re-admits the calls that arrived while
  // no node was routable, in arrival order.
  if (!view_.empty() && !parked_calls_.empty()) {
    std::vector<workload::CallRequest> parked;
    parked.swap(parked_calls_);
    for (const workload::CallRequest& call : parked) {
      submit_to_controller(call);
    }
  }
}

std::size_t Cluster::resolve_node(const LifecycleEvent& event) const {
  const std::size_t g = params_.deployment.group_index(event.group);
  const auto& members = group_members_[g];
  WHISK_CHECK(
      event.node >= 0 &&
          static_cast<std::size_t>(event.node) < members.size(),
      ("cluster lifecycle event targets node " + std::to_string(event.node) +
       " of group \"" + event.group + "\", which has only " +
       std::to_string(members.size()) + " node(s) at t=" +
       std::to_string(event.time) + " (joins later in the schedule?)")
          .c_str());
  return members[static_cast<std::size_t>(event.node)];
}

void Cluster::apply_lifecycle(const LifecycleEvent& event) {
  switch (event.kind) {
    case LifecycleKind::kJoin: {
      const std::size_t g = params_.deployment.group_index(event.group);
      add_node(g);  // joins cold: no warm-up, empty pool
      break;
    }
    case LifecycleKind::kDrain: {
      NodeSlot& slot = nodes_[resolve_node(event)];
      WHISK_CHECK(slot.state == NodeState::kActive,
                  ("drain of group \"" + event.group + "\" node " +
                   std::to_string(event.node) + ": node is not active")
                      .c_str());
      slot.state = NodeState::kDraining;
      note_drain_progress(resolve_node(event));  // idle nodes retire now
      break;
    }
    case LifecycleKind::kFail: {
      NodeSlot& slot = nodes_[resolve_node(event)];
      WHISK_CHECK(slot.state != NodeState::kFailed,
                  ("fail of group \"" + event.group + "\" node " +
                   std::to_string(event.node) + ": node already failed")
                      .c_str());
      slot.state = NodeState::kFailed;
      slot.failed_at = engine_->now();
      // Billing stops at the failure (unless an earlier drain completed).
      if (slot.retired_at < 0.0) slot.retired_at = engine_->now();
      // The controller re-routes everything the node had received but not
      // answered, after the failure-detection delay.
      for (const workload::CallRequest& call : slot.invoker->shutdown()) {
        resubmit(call);
      }
      break;
    }
  }
  rebuild_view();
}

void Cluster::warmup() {
  for (const NodeSlot& slot : nodes_) slot.invoker->warmup();
}

void Cluster::adopt_collector_storage(metrics::Collector&& storage) {
  WHISK_CHECK(collector_.size() == 0 && expected_calls_ == 0,
              "adopt_collector_storage after the run started");
  storage.reset(*catalog_);
  collector_ = std::move(storage);
}

metrics::Collector Cluster::release_collector_storage() {
  return std::move(collector_);
}

void Cluster::run_scenario(const workload::Scenario& scenario) {
  expected_calls_ += scenario.size();
  if (workflow_ != nullptr) {
    // Every scenario call roots a workflow instance; the spawned stages
    // are part of the expected workload from the start, so drain detection
    // and fault gating wait for them too.
    expected_calls_ += workflow_->register_roots(scenario);
    // One workflow record per root — the workflow-side reserve hint.
    collector_.reserve_workflows(scenario.size());
  }
  collector_.reserve(expected_calls_);
  ledger_.resize(expected_calls_);
  for (const auto& call : scenario.calls) {
    workload::CallRequest submit = call;
    if (workflow_ != nullptr) submit.cp_hint = workflow_->root_hint(submit);
    engine_->schedule_ordered(
        submit.release + kClientToControllerS,
        [this, submit] { submit_to_controller(submit); });
  }
  if (autoscaler_ != nullptr && !tick_scheduled_) {
    tick_scheduled_ = true;
    engine_->schedule_in(tick_s_, [this] { autoscaler_tick(); });
  }
}

Cluster::CallState& Cluster::call_state(workload::CallId id) {
  WHISK_CHECK(id >= 0 && static_cast<std::size_t>(id) < ledger_.size(),
              "call id outside [0, calls scheduled): run_scenario needs the "
              "dense ids finalize_scenario assigns");
  return ledger_[static_cast<std::size_t>(id)];
}

void Cluster::submit_to_controller(const workload::CallRequest& call) {
  CallState& state = call_state(call.id);
  // A retry or failure re-submission scheduled before the call resolved
  // (hedge won, attempts exhausted) must not resurrect it.
  if (state.resolved) return;
  // Total outage under a disruptive fault regime: every node is down at
  // once, but a crashed node restarts, so the call parks until
  // rebuild_view() sees capacity again. Without such faults an empty view
  // is a configuration error and aborts below.
  if (view_.empty() && params_.deployment.has_disruptive_faults()) {
    parked_calls_.push_back(call);
    return;
  }
  // Demand-driven autoscalers watch the controller's own arrival stream
  // (resubmissions after a failure count again — they are real load).
  if (controller_history_ != nullptr) {
    controller_history_->record_arrival(call.function, engine_->now());
  }
  // The controller routes the invocation to a worker; the invoker pulls it
  // from Kafka one hop later (that pull time is r'(i)).
  WHISK_CHECK(!view_.empty(),
              "no routable nodes: every node is draining, drained or "
              "failed while calls are still arriving");
  // Admission control: a *fresh* call is shed when every routable node is
  // already at max-queue — refusing loudly beats collapsing quietly.
  // Retries and re-submissions represent work the cluster already
  // admitted, so they always pass.
  if (resilience_ != nullptr && resilience_->max_queue > 0 &&
      !state.routed) {
    bool saturated = true;
    for (const NodeRef& ref : view_) {
      if (ref.load() + nodes_[ref.node_index].in_transit <
          resilience_->max_queue) {
        saturated = false;
        break;
      }
    }
    if (saturated) {
      metrics::CallRecord rec;
      rec.id = call.id;
      rec.function = call.function;
      rec.node = -1;
      rec.release = call.release;
      rec.completion = engine_->now();
      rec.disposition = metrics::Disposition::kShed;
      state.resolved = true;
      collect_record(rec);
      return;
    }
  }
  const std::size_t pick = balancer_->pick(call, view_);
  WHISK_CHECK(pick < view_.size(), "balancer picked a bad index");
  const std::size_t target = view_[pick].node_index;
  state.routed = true;
  if (timers_armed()) {
    const auto [it, fresh] = outstanding_.try_emplace(call.id);
    Outstanding& entry = it->second;
    if (fresh) entry.first_submit = engine_->now();
    entry.primary = target;
    if (resilience_->timeout_s > 0.0) {
      // Re-arm per attempt; the previous timer is stale whether it fired
      // (retry path) or still pends (failure re-submission path).
      if (entry.timeout_ev != sim::kInvalidEvent) {
        engine_->cancel(entry.timeout_ev);
      }
      entry.timeout_ev = engine_->schedule_in(
          resilience_->timeout_s, [this, call] { on_timeout(call); });
    }
    if (resilience_->hedge_p > 0.0 && entry.hedge == FaultHost::npos &&
        entry.hedge_ev == sim::kInvalidEvent &&
        latencies_observed_ >= resilience_->hedge_min_samples &&
        view_.size() >= 2) {
      entry.hedge_ev = engine_->schedule_in(hedge_delay(),
                                            [this, call] { on_hedge(call); });
    }
  }
  ++nodes_[target].in_transit;
  engine_->schedule_in(kControllerToInvokerS,
                       [this, call, target] { arrive_at_node(call, target); });
}

void Cluster::arrive_at_node(const workload::CallRequest& call,
                             std::size_t target) {
  NodeSlot& slot = nodes_[target];
  WHISK_CHECK(slot.in_transit > 0, "in-transit accounting underflow");
  --slot.in_transit;
  if (slot.state == NodeState::kFailed) {
    // The node died while the call was on the wire; the controller notices
    // and re-routes. Draining nodes still accept what was already routed.
    resubmit(call);
    return;
  }
  slot.invoker->submit(call);
}

void Cluster::resubmit(const workload::CallRequest& call) {
  CallState& state = call_state(call.id);
  // Already resolved (a timeout dropped it, or its hedge won): nothing
  // left to recover.
  if (state.resolved) return;
  if (state.attempts >= max_attempts_) {
    drop_call(call);
    return;
  }
  ++state.attempts;
  ++resubmissions_;
  // An armed timeout stays: it covers the call, not the lost attempt.
  engine_->schedule_in(kResubmitDelayS,
                       [this, call] { submit_to_controller(call); });
}

void Cluster::deliver(const metrics::CallRecord& record) {
  // Node-side truth first: the completion may have emptied a draining
  // node's backlog — the moment its metering stops — no matter what
  // becomes of the message below. The invoker drops the call's id from its
  // in-flight set before it calls this, so in_flight() already leaves the
  // call out here.
  if (record.node >= 0 &&
      nodes_[static_cast<std::size_t>(record.node)].state ==
          NodeState::kDraining) {
    note_drain_progress(static_cast<std::size_t>(record.node));
  }
  // Fault hook: the node finished the work but the completion is lost on
  // the return path — the controller (history included) never sees it, and
  // only a resilience timeout re-drives the call.
  for (FaultProcess* dropper : droppers_) {
    if (dropper->drop_completion(record)) return;
  }
  if (controller_history_ != nullptr) {
    controller_history_->record_runtime(
        record.function, record.exec_end - record.exec_start,
        engine_->now());
  }
  metrics::CallRecord rec = record;
  CallState& state = call_state(rec.id);
  // A hedge loser or a late duplicate of an already-resolved call: the
  // first completion won; this one is discarded.
  if (state.resolved) return;
  if (timers_armed()) {
    const auto it = outstanding_.find(rec.id);
    WHISK_CHECK(it != outstanding_.end(),
                "unresolved call delivered without its timer state");
    Outstanding& entry = it->second;
    if (entry.timeout_ev != sim::kInvalidEvent) {
      engine_->cancel(entry.timeout_ev);
    }
    if (entry.hedge_ev != sim::kInvalidEvent) {
      engine_->cancel(entry.hedge_ev);
    }
    if (entry.hedge != FaultHost::npos && rec.node >= 0 &&
        static_cast<std::size_t>(rec.node) == entry.hedge &&
        entry.hedge != entry.primary) {
      ++hedges_won_;
    }
    if (!breakers_.empty() && rec.node >= 0) {
      breaker_note_success(static_cast<std::size_t>(rec.node));
    }
    if (latency_window_) {
      latency_window_->push(engine_->now() - entry.first_submit);
      ++latencies_observed_;
    }
    outstanding_.erase(it);
  }
  rec.attempts = state.attempts;
  state.resolved = true;
  // Response travels back to the blocking HTTP client; c(i) is stamped on
  // arrival there.
  engine_->schedule_in(kResponseReturnS, [this, rec]() mutable {
    rec.completion = engine_->now();
    collect_record(rec);
  });
}

void Cluster::on_timeout(const workload::CallRequest& call) {
  const auto it = outstanding_.find(call.id);
  if (it == outstanding_.end()) return;  // resolved at the same timestamp
  Outstanding& entry = it->second;
  CallState& state = call_state(call.id);
  entry.timeout_ev = sim::kInvalidEvent;
  ++timeouts_;
  if (!breakers_.empty() && entry.primary != FaultHost::npos) {
    breaker_note_timeout(entry.primary);
  }
  const auto budget = static_cast<std::size_t>(
      std::ceil(resilience_->retry_budget *
                static_cast<double>(expected_calls_)));
  if (state.attempts >= max_attempts_ || retries_spent_ >= budget) {
    drop_call(call);
    return;
  }
  ++retries_spent_;
  ++retries_;
  // Saturating: the exponent below caps at 30 long before the counter
  // could wrap.
  if (state.retries < std::numeric_limits<std::uint16_t>::max()) {
    ++state.retries;
  }
  ++state.attempts;
  // Deterministic exponential backoff on the failure re-route base:
  // kResubmitDelayS, 2x it, 4x it, ... The pending retry rides in
  // timeout_ev so drop_call can cancel it.
  const double delay =
      kResubmitDelayS *
      static_cast<double>(1ULL << std::min(state.retries - 1, 30));
  entry.timeout_ev = engine_->schedule_in(
      delay, [this, call] { submit_to_controller(call); });
}

void Cluster::on_hedge(const workload::CallRequest& call) {
  const auto it = outstanding_.find(call.id);
  if (it == outstanding_.end()) return;
  Outstanding& entry = it->second;
  entry.hedge_ev = sim::kInvalidEvent;
  if (entry.hedge != FaultHost::npos || view_.size() < 2) return;
  // The duplicate goes to the least-loaded node other than the primary
  // (lowest index on ties — deterministic, and it cooperates with the
  // balancer instead of re-asking it and maybe getting the primary again).
  std::size_t best = FaultHost::npos;
  std::size_t best_load = 0;
  for (const NodeRef& ref : view_) {
    if (ref.node_index == entry.primary) continue;
    const std::size_t load =
        ref.load() + nodes_[ref.node_index].in_transit;
    if (best == FaultHost::npos || load < best_load) {
      best = ref.node_index;
      best_load = load;
    }
  }
  if (best == FaultHost::npos) return;  // view is just the primary
  entry.hedge = best;
  ++call_state(call.id).attempts;
  ++hedges_;
  ++nodes_[best].in_transit;
  engine_->schedule_in(kControllerToInvokerS,
                       [this, call, best] { arrive_at_node(call, best); });
}

void Cluster::drop_call(const workload::CallRequest& call) {
  const auto it = outstanding_.find(call.id);
  if (it != outstanding_.end()) {
    if (it->second.timeout_ev != sim::kInvalidEvent) {
      engine_->cancel(it->second.timeout_ev);
    }
    if (it->second.hedge_ev != sim::kInvalidEvent) {
      engine_->cancel(it->second.hedge_ev);
    }
    outstanding_.erase(it);
  }
  CallState& state = call_state(call.id);
  state.resolved = true;
  metrics::CallRecord rec;
  rec.id = call.id;
  rec.function = call.function;
  rec.node = -1;
  rec.release = call.release;
  rec.completion = engine_->now();
  rec.attempts = state.attempts;
  rec.disposition = metrics::Disposition::kDropped;
  collect_record(rec);
}

void Cluster::breaker_note_timeout(std::size_t node) {
  if (node >= breakers_.size()) return;
  Breaker& b = breakers_[node];
  if (b.state == Breaker::State::kOpen) return;
  // Half-open means the node was serving a probe; a timeout fails it and
  // re-opens immediately.
  if (b.state == Breaker::State::kHalfOpen ||
      ++b.consecutive_timeouts >= resilience_->breaker_failures) {
    b.state = Breaker::State::kOpen;
    b.consecutive_timeouts = 0;
    ++breaker_opens_;
    rebuild_view();
    schedule_cancellable(resilience_->breaker_cooldown_s, [this, node] {
      Breaker& cooled = breakers_[node];
      if (cooled.state != Breaker::State::kOpen) return;
      // Half-open: the node rejoins the view; its next outcome (success
      // closes, timeout re-opens) decides.
      cooled.state = Breaker::State::kHalfOpen;
      rebuild_view();
    });
  }
}

void Cluster::breaker_note_success(std::size_t node) {
  if (node >= breakers_.size()) return;
  Breaker& b = breakers_[node];
  b.consecutive_timeouts = 0;
  if (b.state == Breaker::State::kHalfOpen) {
    b.state = Breaker::State::kClosed;
  }
}

double Cluster::hedge_delay() const {
  const auto k = static_cast<std::size_t>(
      resilience_->hedge_p *
      static_cast<double>(latency_window_->size() - 1));
  return latency_window_->nth(k);
}

void Cluster::collect_record(const metrics::CallRecord& record) {
  if (workflow_ != nullptr) {
    metrics::CallRecord rec = record;
    workflow_->annotate(rec);
    collector_.add(rec);
    // Advancing the DAG may release successors (fresh arrivals) or cascade
    // drops back through this funnel; either way every spawned stage is in
    // expected_calls_ already.
    workflow_->on_resolved(rec, *this);
  } else {
    collector_.add(record);
  }
  // The last expected call just resolved: cancel every pending fault draw
  // and breaker cooldown so a far-future timer cannot keep the engine
  // ticking past the workload.
  if (live_timers_ > 0 && expected_calls_ > 0 &&
      collector_.size() >= expected_calls_) {
    cancel_pending_timers();
  }
}

void Cluster::schedule_cancellable(double delay_s,
                                   std::function<void()> fn) {
  const std::size_t slot = timers_.size();
  timers_.push_back(engine_->schedule_in(
      delay_s, [this, slot, fn = std::move(fn)] {
        timers_[slot] = sim::kInvalidEvent;
        --live_timers_;
        fn();
      }));
  ++live_timers_;
}

void Cluster::cancel_pending_timers() {
  for (const sim::EventId id : timers_) {
    if (id != sim::kInvalidEvent) engine_->cancel(id);
  }
  timers_.clear();
  live_timers_ = 0;
}

sim::SimTime Cluster::fault_now() const { return engine_->now(); }

void Cluster::fault_schedule(double delay_s, std::function<void()> fn) {
  schedule_cancellable(delay_s, std::move(fn));
}

std::size_t Cluster::fault_group_index(std::string_view name) const {
  return params_.deployment.group_index(name);
}

std::size_t Cluster::fault_active_count(std::size_t group) const {
  std::size_t count = 0;
  if (group == FaultHost::npos) {
    for (const NodeSlot& slot : nodes_) {
      count += slot.state == NodeState::kActive ? 1 : 0;
    }
    return count;
  }
  WHISK_CHECK(group < group_members_.size(), "fault group out of range");
  for (const std::size_t i : group_members_[group]) {
    count += nodes_[i].state == NodeState::kActive ? 1 : 0;
  }
  return count;
}

std::size_t Cluster::fault_active_at(std::size_t group, std::size_t k) const {
  if (group == FaultHost::npos) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].state != NodeState::kActive) continue;
      if (k == 0) return i;
      --k;
    }
  } else {
    WHISK_CHECK(group < group_members_.size(), "fault group out of range");
    for (const std::size_t i : group_members_[group]) {
      if (nodes_[i].state != NodeState::kActive) continue;
      if (k == 0) return i;
      --k;
    }
  }
  WHISK_CHECK(false, "fault_active_at: index past the active nodes");
  return FaultHost::npos;
}

std::size_t Cluster::fault_member(std::size_t group,
                                  std::size_t member) const {
  WHISK_CHECK(group < group_members_.size(), "fault group out of range");
  const auto& members = group_members_[group];
  return member < members.size() ? members[member] : FaultHost::npos;
}

bool Cluster::fault_node_active(std::size_t node) const {
  WHISK_CHECK(node < nodes_.size(), "fault node out of range");
  return nodes_[node].state == NodeState::kActive;
}

bool Cluster::fault_node_failed(std::size_t node) const {
  WHISK_CHECK(node < nodes_.size(), "fault node out of range");
  return nodes_[node].state == NodeState::kFailed;
}

bool Cluster::fault_fail(std::size_t node) {
  WHISK_CHECK(node < nodes_.size(), "fault node out of range");
  NodeSlot& slot = nodes_[node];
  // Only active nodes crash stochastically; draining/failed ones are
  // already out of service and retired ones hold no work.
  if (slot.state != NodeState::kActive) return false;
  slot.state = NodeState::kFailed;
  slot.failed_at = engine_->now();
  if (slot.retired_at < 0.0) slot.retired_at = engine_->now();
  for (const workload::CallRequest& call : slot.invoker->shutdown()) {
    resubmit(call);
  }
  rebuild_view();
  return true;
}

bool Cluster::fault_restart(std::size_t node) {
  WHISK_CHECK(node < nodes_.size(), "fault node out of range");
  NodeSlot& slot = nodes_[node];
  if (slot.state != NodeState::kFailed) return false;
  // Close the dead incarnation's metering interval and downtime window,
  // then seat a fresh cold invoker in the same slot.
  slot.accrued_s += std::max(0.0, slot.retired_at - slot.joined_at);
  if (slot.failed_at >= 0.0) {
    unavailability_accrued_s_ += engine_->now() - slot.failed_at;
    slot.failed_at = -1.0;
  }
  ++slot.incarnation;
  retired_invokers_.push_back(std::move(slot.invoker));
  slot.invoker = make_invoker(slot.group, node, slot.incarnation);
  slot.state = NodeState::kActive;
  slot.joined_at = engine_->now();
  slot.retired_at = -1.0;
  if (node < breakers_.size()) breakers_[node] = Breaker{};
  rebuild_view();
  return true;
}

void Cluster::fault_set_speed(std::size_t node, double factor) {
  WHISK_CHECK(node < nodes_.size(), "fault node out of range");
  NodeSlot& slot = nodes_[node];
  if (slot.state == NodeState::kFailed) return;
  slot.invoker->set_speed_factor(factor);
}

bool Cluster::fault_workload_done() const {
  return expected_calls_ > 0 && collector_.size() >= expected_calls_;
}

void Cluster::fault_note_injected() { ++faults_injected_; }

double Cluster::unavailability_s() const {
  double total = unavailability_accrued_s_;
  for (const NodeSlot& slot : nodes_) {
    if (slot.failed_at >= 0.0) total += engine_->now() - slot.failed_at;
  }
  return total;
}

void Cluster::autoscaler_tick() {
  const sim::SimTime now = engine_->now();
  ClusterObservation cluster_obs;
  cluster_obs.now = now;
  cluster_obs.num_functions = catalog_->size();
  cluster_obs.history = controller_history_.get();

  const ClusterSpec& deployment = params_.deployment;
  bool changed = false;
  for (std::size_t g = 0; g < deployment.groups.size(); ++g) {
    GroupObservation group_obs;
    group_obs.group = g;
    group_obs.cores_per_node =
        deployment.node_params(g, params_.node).cores;
    group_obs.capacity_share = capacity_share_[g];
    for (const std::size_t i : group_members_[g]) {
      if (nodes_[i].state != NodeState::kActive) continue;
      ++group_obs.active;
      group_obs.queued += nodes_[i].invoker->queue_length();
      group_obs.executing += nodes_[i].invoker->executing();
    }
    const std::size_t desired =
        std::clamp(autoscaler_->desired_nodes(group_obs, cluster_obs),
                   deployment.group_min_nodes(g),
                   deployment.group_max_nodes(g));
    if (desired == group_obs.active) continue;
    if (now - last_scale_[g] < cooldown_s_) continue;  // rate-limited
    if (desired > group_obs.active) {
      for (std::size_t n = group_obs.active; n < desired; ++n) {
        add_node(g);  // scale-up joins are cold, like join events
        ++scale_ups_;
      }
    } else {
      // Scale down by draining the newest active members first — they hold
      // the least container warmth, so the fleet keeps its oldest caches.
      std::size_t to_drain = group_obs.active - desired;
      const auto& members = group_members_[g];
      for (auto it = members.rbegin();
           it != members.rend() && to_drain > 0; ++it) {
        NodeSlot& slot = nodes_[*it];
        if (slot.state != NodeState::kActive) continue;
        slot.state = NodeState::kDraining;
        ++scale_downs_;
        --to_drain;
        note_drain_progress(*it);  // an idle node retires immediately
      }
    }
    last_scale_[g] = now;
    changed = true;
  }
  if (changed) rebuild_view();

  // Keep observing until every scheduled call has come back, then let the
  // engine's event queue drain (run() ends when it is empty).
  if (collector_.size() < expected_calls_) {
    engine_->schedule_in(tick_s_, [this] { autoscaler_tick(); });
  } else {
    tick_scheduled_ = false;
  }
}

void Cluster::note_drain_progress(std::size_t node) {
  NodeSlot& slot = nodes_[node];
  if (slot.state == NodeState::kDraining && slot.retired_at < 0.0 &&
      slot.invoker->in_flight() == 0 && slot.in_transit == 0) {
    slot.retired_at = engine_->now();
  }
}

double Cluster::node_seconds(std::size_t group) const {
  WHISK_CHECK(group < group_members_.size(),
              "cluster group index out of range");
  const sim::SimTime now = engine_->now();
  double total = 0.0;
  for (const std::size_t i : group_members_[group]) {
    const NodeSlot& slot = nodes_[i];
    const sim::SimTime end = slot.retired_at >= 0.0 ? slot.retired_at : now;
    // accrued_s holds the uptime of earlier incarnations (closed at each
    // crash); the live interval starts at the latest restart.
    total += slot.accrued_s + std::max(0.0, end - slot.joined_at);
  }
  return total;
}

double Cluster::node_hours() const {
  double seconds = 0.0;
  for (std::size_t g = 0; g < group_members_.size(); ++g) {
    seconds += node_seconds(g);
  }
  return seconds / 3600.0;
}

double Cluster::cost_usd() const {
  double cost = 0.0;
  for (std::size_t g = 0; g < group_members_.size(); ++g) {
    cost += node_seconds(g) / 3600.0 *
            params_.deployment.group_cost_per_hour(g);
  }
  return cost;
}

node::Invoker& Cluster::invoker(std::size_t i) {
  WHISK_CHECK(i < nodes_.size(), "invoker index out of range");
  return *nodes_[i].invoker;
}

const node::Invoker& Cluster::invoker(std::size_t i) const {
  WHISK_CHECK(i < nodes_.size(), "invoker index out of range");
  return *nodes_[i].invoker;
}

NodeState Cluster::node_state(std::size_t i) const {
  WHISK_CHECK(i < nodes_.size(), "node index out of range");
  const NodeSlot& slot = nodes_[i];
  // in_flight() covers everything received and not yet delivered (queued,
  // executing, post-processing); in_transit covers calls routed before the
  // drain but still on the wire.
  if (slot.state == NodeState::kDraining && slot.invoker->in_flight() == 0 &&
      slot.in_transit == 0) {
    return NodeState::kDrained;
  }
  return slot.state;
}

std::size_t Cluster::node_group(std::size_t i) const {
  WHISK_CHECK(i < nodes_.size(), "node index out of range");
  return nodes_[i].group;
}

node::InvokerStats Cluster::total_stats() const {
  node::InvokerStats total;
  for (const NodeSlot& slot : nodes_) total.merge(slot.invoker->stats());
  return total;
}

std::vector<GroupStats> Cluster::group_stats() const {
  std::vector<GroupStats> out;
  out.reserve(params_.deployment.groups.size());
  for (std::size_t g = 0; g < params_.deployment.groups.size(); ++g) {
    GroupStats group;
    group.name = params_.deployment.groups[g].name;
    for (const std::size_t i : group_members_[g]) {
      const NodeSlot& slot = nodes_[i];
      ++group.nodes;
      if (slot.state == NodeState::kActive) ++group.active;
      group.stats.merge(slot.invoker->stats());
    }
    out.push_back(std::move(group));
  }
  return out;
}

}  // namespace whisk::cluster
