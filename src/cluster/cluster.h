#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/cluster_spec.h"
#include "cluster/fault.h"
#include "cluster/load_balancer.h"
#include "cluster/resilience.h"
#include "core/history.h"
#include "metrics/collector.h"
#include "node/invoker.h"
#include "node/params.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "util/sorted_ring_buffer.h"
#include "workload/function.h"
#include "workload/scenario.h"
#include "workload/workflow.h"

namespace whisk::cluster {

class WorkflowEngine;

// Request-path latencies (the ~10 ms client-observable overhead of Table I
// splits across these plus the node-side idle op costs).
inline constexpr double kClientToControllerS = 0.002;  // Gatling/NGINX hop
inline constexpr double kControllerToInvokerS = 0.003;  // Kafka hop, r'(i)
inline constexpr double kResponseReturnS = 0.004;       // node -> end client
// Controller-side detect-and-reroute latency for a call interrupted by a
// node failure (re-submission enters at submit_to_controller again). Also
// the base of the resilience layer's exponential retry backoff
// (kResubmitDelayS * 2^retry).
inline constexpr double kResubmitDelayS = 0.010;
// Total submissions allowed per call before the controller gives up and
// records it with a `dropped` disposition. A resilience= section that arms
// timeouts or hedges replaces the bound with its max-attempts.
inline constexpr int kMaxResubmitAttempts = 16;

struct ClusterParams {
  // Which node-level resource manager runs on the workers: any name
  // registered with node::InvokerRegistry ("baseline", "ours", ...).
  std::string invoker = "ours";
  // Scheduling policy for policy-driven invokers: any name registered with
  // core::PolicyRegistry ("fifo", "sept", ..., "sjf-aging").
  std::string policy = "fifo";
  // Controller-side spreading: any name registered with
  // cluster::BalancerRegistry ("round-robin", "home-invoker",
  // "least-loaded", "weighted-least-loaded", "join-idle-queue", ...).
  std::string balancer = "round-robin";

  // The fleet: heterogeneous node groups, keep-alive policy and scheduled
  // lifecycle events. ClusterSpec::homogeneous(n) reproduces the paper's
  // "n identical workers"; the default is one node.
  ClusterSpec deployment;
  // Base per-node model constants; each group applies its overrides (and
  // the deployment's keep-alive) on top.
  node::NodeParams node;

  // Composite-function shape: when enabled, every scenario call becomes
  // the root of one workflow instance and completed stages release their
  // DAG successors as new arrivals. "none" (the default) keeps calls
  // independent — the exact pre-workflow request path.
  workload::WorkflowSpec workflow;
};

// Where a node is in its life. kDrained is derived: a draining node whose
// backlog emptied.
enum class NodeState { kActive, kDraining, kDrained, kFailed };

[[nodiscard]] constexpr const char* to_string(NodeState s) {
  switch (s) {
    case NodeState::kActive:
      return "active";
    case NodeState::kDraining:
      return "draining";
    case NodeState::kDrained:
      return "drained";
    case NodeState::kFailed:
      return "failed";
  }
  return "?";
}

// Per-group telemetry rollup for sweep outputs: fleet shape plus the full
// InvokerStats fold over the group's nodes (via InvokerStats::merge, so a
// new counter shows up here without touching this struct).
struct GroupStats {
  std::string name;
  std::size_t nodes = 0;   // nodes ever in the group (joins included)
  std::size_t active = 0;  // routable when queried
  node::InvokerStats stats;
};

// One full FaaS deployment under test: a controller with a load balancer,
// the ClusterSpec's node groups, and the client-side measurement point.
// Mirrors Fig. 1 of the paper (Gatling -> NGINX -> controller -> Kafka ->
// invoker -> action container), generalized to heterogeneous fleets with
// scheduled churn:
//
//   * drain@t  — the node leaves the balancer's NodeView but finishes its
//     backlog; once idle it counts as drained;
//   * join@t   — a fresh, cold (un-warmed) node joins its group and starts
//     receiving calls;
//   * fail@t   — the node dies; calls it had received but not completed
//     are re-submitted through the controller (counted in resubmissions()
//     and in each record's attempts).
//
// When the deployment names an autoscaler, the cluster additionally runs a
// closed control loop: every tick-s seconds it observes each group (active
// nodes, queue depths, executing calls — plus a controller-side
// RuntimeHistory for controllers that want arrival/completion windows),
// asks the controller for a desired size, clamps it to the group's
// min-nodes/max-nodes, rate-limits with cooldown-s, and applies the change
// through the same join/drain machinery scheduled events use (scale-downs
// drain the newest active node first). Every node's active seconds are
// metered — joins and drains pro-rated — so cost_usd() prices the fleet
// via each group's cost-per-hour.
//
// When the deployment carries `faults=`, the cluster additionally runs each
// named FaultProcess against itself (it is the FaultHost): crashes reuse
// the fail machinery, crashed nodes restart *in place* with a fresh cold
// invoker (metering accrues across incarnations; downtime accumulates in
// unavailability_s()), stragglers stretch a node's sampled durations, and
// lost completions are swallowed before the controller. A `resilience=`
// section arms the controller-side counter-measures: per-attempt timeouts
// with budgeted exponential-backoff retries, hedged duplicates after the
// observed latency quantile (first completion wins, the loser's timers are
// cancelled in O(log n)), per-node circuit breakers that eject repeatedly
// timing-out nodes from the NodeView until a post-cooldown probe succeeds,
// and queue-depth admission control that sheds fresh calls when every
// routable node is saturated.
//
// Every call owns one 8-byte entry in a dense ledger indexed by call id:
// its attempt count, its timeout-retry count, whether it passed admission
// and whether it resolved. Failure re-submission, timeout retries and
// hedges all count attempts there, against one bound (kMaxResubmitAttempts,
// or max-attempts once timeouts or hedges are armed). Only the timer state
// of calls in flight under armed timeouts or hedges lives in a sparse map.
class Cluster : public FaultHost {
 public:
  Cluster(sim::Engine& engine, const workload::FunctionCatalog& catalog,
          ClusterParams params, std::uint64_t seed);
  ~Cluster();

  // Pre-warm every initial worker (paper Sec. V-A); administrative. Nodes
  // joining later start cold.
  void warmup();

  // Schedule the whole scenario. The caller then drives `engine.run()`
  // until the event queue drains (Gatling "waits until all the responses
  // are returned"). Call ids must lie in [0, calls scheduled so far), as
  // finalize_scenario assigns them: they index the per-call ledger, and
  // call_state() aborts on an id outside it. A second run_scenario extends
  // the range by its own size.
  void run_scenario(const workload::Scenario& scenario);

  [[nodiscard]] const metrics::Collector& collector() const {
    return collector_;
  }

  // Workspace reuse (experiments::CellWorkspace): seed the collector with
  // recycled storage — cleared, capacity kept — before any call resolves,
  // and take the storage back when the run is over. Only the container
  // capacity survives the round trip, so a recycling run is byte-identical
  // to a fresh one.
  void adopt_collector_storage(metrics::Collector&& storage);
  [[nodiscard]] metrics::Collector release_collector_storage();
  // Nodes ever deployed (drained/failed ones included).
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  // Nodes the balancer may currently route to.
  [[nodiscard]] std::size_t routable_nodes() const { return view_.size(); }
  [[nodiscard]] node::Invoker& invoker(std::size_t i);
  [[nodiscard]] const node::Invoker& invoker(std::size_t i) const;
  [[nodiscard]] NodeState node_state(std::size_t i) const;
  // Ordinal into params().deployment.groups for node `i`.
  [[nodiscard]] std::size_t node_group(std::size_t i) const;

  [[nodiscard]] const ClusterParams& params() const { return params_; }

  // Aggregate invoker stats over all workers (failed ones included).
  [[nodiscard]] node::InvokerStats total_stats() const;
  // Per-group rollup in ClusterSpec group order.
  [[nodiscard]] std::vector<GroupStats> group_stats() const;
  // Calls re-submitted after a node failure (a call surviving two failures
  // counts twice).
  [[nodiscard]] std::size_t resubmissions() const { return resubmissions_; }

  // Terminal records this run will produce: scenario calls plus, when a
  // workflow is configured, every spawned downstream stage.
  [[nodiscard]] std::size_t expected_calls() const {
    return expected_calls_;
  }
  // True when the cluster expands calls into workflow DAGs.
  [[nodiscard]] bool running_workflows() const {
    return workflow_ != nullptr;
  }

  // True when the deployment runs a closed-loop scaling controller.
  [[nodiscard]] bool autoscaling() const { return autoscaler_ != nullptr; }
  // Autoscaler actions so far: nodes added / drains initiated (scheduled
  // lifecycle events are not counted).
  [[nodiscard]] std::size_t scale_ups() const { return scale_ups_; }
  [[nodiscard]] std::size_t scale_downs() const { return scale_downs_; }

  // Metered active node-seconds of one group: for each member, from its
  // join to its retirement (drain completed or failed) or to now if still
  // running — joins, drains and crash/restart gaps pro-rate automatically.
  [[nodiscard]] double node_seconds(std::size_t group) const;
  // Fleet-wide metered node-hours.
  [[nodiscard]] double node_hours() const;
  // Fleet cost: each group's node-hours times its cost-per-hour.
  [[nodiscard]] double cost_usd() const;

  // Robustness telemetry (the per-cell economics-of-failure columns).
  [[nodiscard]] std::size_t faults_injected() const {
    return faults_injected_;
  }
  // Timeout expirations, and how many of them were answered with a retry.
  [[nodiscard]] std::size_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::size_t retries() const { return retries_; }
  // Hedged duplicates sent, and how many the hedge node won.
  [[nodiscard]] std::size_t hedges() const { return hedges_; }
  [[nodiscard]] std::size_t hedges_won() const { return hedges_won_; }
  [[nodiscard]] std::size_t breaker_opens() const { return breaker_opens_; }
  // Accumulated node-down seconds (failure to restart, or to now for nodes
  // still down) across the whole fleet.
  [[nodiscard]] double unavailability_s() const;

  // FaultHost — the surface fault processes mutate the cluster through.
  [[nodiscard]] sim::SimTime fault_now() const override;
  void fault_schedule(double delay_s, std::function<void()> fn) override;
  [[nodiscard]] std::size_t fault_group_index(
      std::string_view name) const override;
  [[nodiscard]] std::size_t fault_active_count(
      std::size_t group) const override;
  [[nodiscard]] std::size_t fault_active_at(std::size_t group,
                                            std::size_t k) const override;
  [[nodiscard]] std::size_t fault_member(std::size_t group,
                                         std::size_t member) const override;
  [[nodiscard]] bool fault_node_active(std::size_t node) const override;
  [[nodiscard]] bool fault_node_failed(std::size_t node) const override;
  bool fault_fail(std::size_t node) override;
  bool fault_restart(std::size_t node) override;
  void fault_set_speed(std::size_t node, double factor) override;
  [[nodiscard]] bool fault_workload_done() const override;
  void fault_note_injected() override;

 private:
  // The workflow engine drives released stages through submit_to_controller
  // and cascades drops through collect_record — the same funnels every
  // other call takes.
  friend class WorkflowEngine;

  struct NodeSlot {
    std::unique_ptr<node::Invoker> invoker;
    std::size_t group = 0;
    NodeState state = NodeState::kActive;
    // Calls routed to this node but still on the controller->invoker wire.
    // Keeps node_state() monotone: a draining node does not read as
    // drained while a pre-drain call is about to arrive.
    std::size_t in_transit = 0;
    // Metering stamps: when the current incarnation joined the fleet, and
    // when it stopped accruing cost (drain completed / failed); -1 while
    // still accruing. Restart-in-place folds the closed interval into
    // accrued_s and opens a new one.
    sim::SimTime joined_at = 0.0;
    sim::SimTime retired_at = -1.0;
    double accrued_s = 0.0;
    // When the node (fault- or event-) failed; -1 while up. Folded into
    // the cluster's unavailability total at restart or query time.
    sim::SimTime failed_at = -1.0;
    // Restart count; tags the replacement invoker's RNG stream so every
    // incarnation draws an independent deterministic stream.
    std::size_t incarnation = 0;
  };

  // Create one node of `group` and append it to the fleet (construction
  // and join path). Returns the global node index.
  std::size_t add_node(std::size_t group);
  void rebuild_view();
  void apply_lifecycle(const LifecycleEvent& event);
  // Global node index of (group ordinal, group-local index); aborts with
  // the event context when the node does not exist (yet).
  [[nodiscard]] std::size_t resolve_node(const LifecycleEvent& event) const;

  // Fresh invoker for one slot, stream-tagged by global node index and
  // incarnation (shared by add_node and restart-in-place).
  [[nodiscard]] std::unique_ptr<node::Invoker> make_invoker(
      std::size_t group, std::size_t index, std::size_t incarnation);

  void submit_to_controller(const workload::CallRequest& call);
  void arrive_at_node(const workload::CallRequest& call, std::size_t target);
  void resubmit(const workload::CallRequest& call);
  void deliver(const metrics::CallRecord& record);

  // One ledger entry per call id: the only place attempts are counted and
  // resolution is recorded.
  struct CallState {
    // Submissions so far: first + failure re-submissions + timeout
    // retries + hedges; stamped into the terminal record.
    std::int32_t attempts = 1;
    std::uint16_t retries = 0;  // timeout retries (the backoff exponent)
    bool routed = false;    // passed admission; never shed afterwards
    bool resolved = false;  // terminal record issued; later copies vanish
  };
  static_assert(sizeof(CallState) == 8);
  // Ledger entry of `id`; aborts when the id lies outside the calls
  // scheduled so far.
  [[nodiscard]] CallState& call_state(workload::CallId id);

  // Resilience internals (no-ops unless the deployment arms them).
  // Timer state of one call in flight while timeouts or hedges are armed;
  // erased when the call resolves.
  struct Outstanding {
    sim::EventId timeout_ev = sim::kInvalidEvent;
    sim::EventId hedge_ev = sim::kInvalidEvent;
    sim::SimTime first_submit = 0.0;
    std::size_t primary = FaultHost::npos;  // latest primary target
    std::size_t hedge = FaultHost::npos;    // hedge target, npos until sent
  };
  struct Breaker {
    enum class State { kClosed, kOpen, kHalfOpen };
    State state = State::kClosed;
    std::size_t consecutive_timeouts = 0;
  };

  // Only timeouts and hedges need per-call timer state; the attempt bound
  // and admission control read the ledger alone.
  [[nodiscard]] bool timers_armed() const {
    return resilience_ != nullptr &&
           (resilience_->timeout_s > 0.0 || resilience_->hedge_p > 0.0);
  }
  void on_timeout(const workload::CallRequest& call);
  void on_hedge(const workload::CallRequest& call);
  // Write the terminal `dropped` record for a call that exhausted its
  // attempts, mark it resolved and cancel its timers.
  void drop_call(const workload::CallRequest& call);
  // Breaker transitions fed by per-node timeout/success signals.
  void breaker_note_timeout(std::size_t node);
  void breaker_note_success(std::size_t node);
  // Latency quantile the hedge delay is drawn from (window of recent
  // controller-observed latencies).
  [[nodiscard]] double hedge_delay() const;
  // Terminal-record funnel: feeds the collector and, once every expected
  // call has resolved, cancels all pending fault/breaker timers so the
  // engine can drain.
  void collect_record(const metrics::CallRecord& record);
  // Cancellable timer shared by fault processes and breaker cooldowns.
  void schedule_cancellable(double delay_s, std::function<void()> fn);
  void cancel_pending_timers();

  // One pass of the closed loop; reschedules itself until every expected
  // call has been collected.
  void autoscaler_tick();
  // Stamp `retired_at` if the node is draining and its backlog just hit
  // zero (the moment metering stops).
  void note_drain_progress(std::size_t node);

  sim::Engine* engine_;
  const workload::FunctionCatalog* catalog_;
  ClusterParams params_;

  std::vector<NodeSlot> nodes_;
  // Dead incarnations parked until the run ends: a restarted slot's old
  // invoker still owns engine callbacks that no-op through its failed flag,
  // so destroying it mid-run would leave those events dangling.
  std::vector<std::unique_ptr<node::Invoker>> retired_invokers_;
  // Calls that arrived while every node was failed (disruptive fault
  // regimes only); rebuild_view() re-admits them once capacity returns.
  std::vector<workload::CallRequest> parked_calls_;
  std::vector<std::vector<std::size_t>> group_members_;
  NodeView view_;
  std::unique_ptr<LoadBalancer> balancer_;
  metrics::Collector collector_;
  sim::Rng node_seed_root_;

  // Closed-loop scaling state; all null/empty unless the deployment names
  // an autoscaler (autoscaler-free runs take no new code paths).
  std::unique_ptr<Autoscaler> autoscaler_;
  // Controller-side history fed with every submitted arrival and every
  // completion; only allocated when the controller wants a window.
  std::unique_ptr<core::RuntimeHistory> controller_history_;
  double tick_s_ = 0.0;      // the autoscaler's tick-s
  double cooldown_s_ = 0.0;  // and cooldown-s
  std::vector<sim::SimTime> last_scale_;  // per group; -inf = never
  std::vector<double> capacity_share_;    // per group, t=0 core fractions
  bool tick_scheduled_ = false;
  // Scenario calls scheduled so far; the tick loop stops rescheduling once
  // the collector has them all, letting the engine drain.
  std::size_t expected_calls_ = 0;
  std::size_t scale_ups_ = 0;
  std::size_t scale_downs_ = 0;

  std::size_t resubmissions_ = 0;
  // The per-call ledger, sized by run_scenario to expected_calls_.
  std::vector<CallState> ledger_;
  // Attempt bound for every path: kMaxResubmitAttempts, or the resilience
  // section's max-attempts when it arms timeouts or hedges.
  int max_attempts_ = kMaxResubmitAttempts;

  // Workflow subsystem; null unless params_.workflow is enabled
  // (workflow-free runs take the exact pre-workflow code path).
  std::unique_ptr<WorkflowEngine> workflow_;

  // Fault subsystem; all empty/null on fault-free deployments.
  std::vector<std::unique_ptr<FaultProcess>> fault_processes_;
  // The drops_completions() subset, consulted per delivery.
  std::vector<FaultProcess*> droppers_;
  // Cancellable timers (fault self-schedules, breaker cooldowns) in issue
  // order, kInvalidEvent once fired, plus how many still pend; the pending
  // ones are cancelled en masse once the workload is fully collected so
  // far-future draws cannot extend the run.
  std::vector<sim::EventId> timers_;
  std::size_t live_timers_ = 0;
  std::size_t faults_injected_ = 0;
  double unavailability_accrued_s_ = 0.0;

  // Resilience subsystem; null unless the deployment has a resilience=
  // section.
  std::unique_ptr<ResilienceConfig> resilience_;
  // Timer state of unresolved calls; empty unless timeouts or hedges are
  // armed.
  std::unordered_map<workload::CallId, Outstanding> outstanding_;
  std::vector<Breaker> breakers_;  // per node; empty unless breaker armed
  // Recent controller-observed latencies feeding the hedge quantile (only
  // while hedges are armed), plus the total observed count gating hedge
  // arming.
  std::optional<util::SortedRingBuffer> latency_window_;
  std::size_t latencies_observed_ = 0;
  std::size_t retries_spent_ = 0;  // against the retry budget
  std::size_t timeouts_ = 0;
  std::size_t retries_ = 0;
  std::size_t hedges_ = 0;
  std::size_t hedges_won_ = 0;
  std::size_t breaker_opens_ = 0;
};

}  // namespace whisk::cluster
