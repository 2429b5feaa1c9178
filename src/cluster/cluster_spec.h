#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/fault.h"
#include "cluster/resilience.h"
#include "container/keep_alive.h"
#include "node/params.h"
#include "util/component_spec.h"

namespace whisk::cluster {

// Every node-group parameter, with its default; surfaced by the unknown-key
// diagnostic and by `whisk_sweep --list`. Each key also takes a '_'
// spelling (memory_mb).
[[nodiscard]] const std::vector<util::ParamDecl>& node_group_params();

// One homogeneous slice of the fleet: `count` nodes sharing a name and a
// set of NodeParams overrides. Parameter values are kept verbatim and
// applied on top of the experiment's base NodeParams.
struct NodeGroupSpec {
  std::string name = "node";
  int count = 1;
  // Keys from node_group_params(), case-insensitive; validated and folded
  // by ClusterSpec::normalized().
  util::ParamMap params;

  friend bool operator==(const NodeGroupSpec&,
                         const NodeGroupSpec&) = default;
};

// Scheduled fleet churn. Times are absolute sim seconds (the measured
// burst starts at 0).
enum class LifecycleKind {
  kJoin,   // a new (cold, un-warmed) node joins the group
  kDrain,  // the node stops receiving calls but finishes its backlog
  kFail,   // the node dies; its in-flight calls are re-submitted
};

[[nodiscard]] constexpr const char* to_string(LifecycleKind k) {
  switch (k) {
    case LifecycleKind::kJoin:
      return "join";
    case LifecycleKind::kDrain:
      return "drain";
    case LifecycleKind::kFail:
      return "fail";
  }
  return "?";
}

// A response-time service-level objective: `metric<threshold-s`, e.g.
// "p99<2.5". The metric names the statistic the objective is stated on
// (mean, p50, p75, p95, p99 or max response time); the per-call violation
// count reported by the runner counts every response above the threshold,
// which is what any of those statistics is computed from.
struct SloSpec {
  std::string metric = "p99";
  double threshold_s = 0.0;

  [[nodiscard]] static SloSpec parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const SloSpec&, const SloSpec&) = default;
};

struct LifecycleEvent {
  LifecycleKind kind = LifecycleKind::kJoin;
  double time = 0.0;
  std::string group;
  // Node index within the group (creation order, joins appended); -1 for
  // join events, which always add a fresh node.
  int node = -1;

  friend bool operator==(const LifecycleEvent&,
                         const LifecycleEvent&) = default;
};

// A declarative deployment description — the cluster-layer mirror of
// SchedulerSpec / ScenarioSpec / CampaignSpec:
//
//   auto spec = ClusterSpec::parse(
//       "big:4?cores=16&memory-mb=65536,small:8?cores=4&cost-per-hour=0.2; "
//       "keep-alive=ttl?idle-s=600; "
//       "autoscaler=target-util?low=0.3&high=0.85; "
//       "faults=crash-restart?mtbf-s=120&mttr-s=15,slow-node?factor=4; "
//       "resilience=timeout-s=2&max-attempts=3&hedge-p=0.95; "
//       "slo=p99<2.5; "
//       "events=drain@120:big/0,join@300:small");
//
// Grammar: semicolon-separated sections, each keyed by the case-insensitive
// word before its '=' (spaces allowed), in any order and at most once. The
// section with no known key lists node groups `name[:count][?key=value&...]`
// (params: node_group_params()); `keep-alive=` (alias `keep_alive=`) names a
// container::KeepAlivePolicyRegistry spec; `autoscaler=` names an
// AutoscalerRegistry controller that scales groups at runtime within their
// min-nodes/max-nodes bounds; `faults=` lists FaultRegistry processes the
// cluster runs under (seeded stochastic churn — see fault.h); `resilience=`
// sets the controller's recovery policy (timeouts/retries, hedging,
// breakers, shedding — see resilience.h); `slo=` states the response-time
// objective runs are scored against; `events=` lists scheduled lifecycle
// events `kind@time:group[/node]` (drain/fail require the /node index, join
// takes just the group). A section spelled at its default value
// ("keep-alive=lru", "autoscaler=none", "faults=none", "resilience=none")
// is the same spec as one without it. Group/policy names are
// case-insensitive; unknown groups, policies and parameter keys abort with
// diagnostics that echo the input and list the valid names.
//
// Because campaign grids split their axes on ';' and ',', ClusterSpec also
// accepts '|' wherever ';' appears and '+' wherever a list ',' appears, so
// a full deployment can ride inside a `clusters=` campaign axis:
//
//   clusters=big:2?cores=16+small:4|keep-alive=ttl?idle-s=300
//
// to_string() renders the canonical ';'/',' form; to_compact_string() the
// grid-safe '|'/'+' form. parse(to_string()) round-trips exactly (group
// order is preserved; parameters and events are canonicalized).
struct ClusterSpec {
  std::vector<NodeGroupSpec> groups = {NodeGroupSpec{}};
  // to_string() renders each section below only when it differs from its
  // default.
  container::KeepAliveSpec keep_alive;
  // Closed-loop scaling controller; default "none" (fixed fleet or
  // pre-scheduled events only).
  AutoscalerSpec autoscaler;
  // Stochastic fault processes active for the whole run; empty = no faults
  // (the default, byte-identical to the pre-fault simulator).
  std::vector<FaultSpec> faults;
  // Controller-side recovery policy; empty = none (legacy behavior).
  ResilienceSpec resilience;
  // Response-time objective; meaningful only when slo_set (an SLO has no
  // "none" value to fall back on).
  SloSpec slo;
  bool slo_set = false;
  std::vector<LifecycleEvent> events;
  // True once normalized() has validated this exact value; lets the
  // campaign runner normalize a spec once and reuse it per cell without
  // re-validating (normalized() early-outs). Not part of equality, and
  // parse() always returns canonical specs. Any hand-mutation after
  // normalization is on the caller.
  bool canonical = false;

  [[nodiscard]] static ClusterSpec parse(std::string_view text);
  // `nodes` identical workers, LRU keep-alive, no churn (what
  // ExperimentSpec::nodes() and a campaign's nodes= axis expand to).
  // Already canonical: normalized() returns it unchanged.
  [[nodiscard]] static ClusterSpec homogeneous(int nodes);

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::string to_compact_string() const;

  // Abort (echoing the offender and listing valid alternatives) on unknown
  // group parameters, keep-alive policies or event targets; returns a copy
  // with names lowercased, the keep-alive normalized and events
  // time-sorted (stable).
  [[nodiscard]] ClusterSpec normalized() const;

  // Nodes present at t = 0 (before any join events).
  [[nodiscard]] std::size_t initial_nodes() const;
  // Sum of initial cores at t = 0, with per-group overrides applied on top
  // of `base_cores` — what workload sizing scales with.
  [[nodiscard]] int initial_cores(int base_cores) const;
  // True when any drain/fail event is scheduled — the churn that needs
  // per-call in-flight bookkeeping (joins alone do not).
  [[nodiscard]] bool has_disruptive_events() const;
  // True when any fault process can fail nodes (crash-restart, flap).
  [[nodiscard]] bool has_disruptive_faults() const;
  // Per-call in-flight bookkeeping is needed for disruptive events/faults
  // AND for any autoscaler (its drains must detect backlog completion).
  [[nodiscard]] bool needs_in_flight_tracking() const;

  // Typed group-parameter reads (values validated by normalized()):
  // cost-per-hour defaults to 0 (free), min-nodes to 1 (a group never
  // autoscales away entirely unless min-nodes=0 is explicit) and max-nodes
  // to 1000000. Bounds apply to autoscaler decisions only; scheduled
  // events may exceed them.
  [[nodiscard]] double group_cost_per_hour(std::size_t group) const;
  [[nodiscard]] std::size_t group_min_nodes(std::size_t group) const;
  [[nodiscard]] std::size_t group_max_nodes(std::size_t group) const;

  // Ordinal of `name` among groups, or abort listing the group names.
  [[nodiscard]] std::size_t group_index(std::string_view name) const;

  // The group's NodeParams: `base` with the group's overrides and this
  // spec's keep-alive applied (the deployment owns the keep-alive policy).
  [[nodiscard]] node::NodeParams node_params(
      std::size_t group, const node::NodeParams& base) const;

  friend bool operator==(const ClusterSpec& a, const ClusterSpec& b) {
    return a.groups == b.groups && a.keep_alive == b.keep_alive &&
           a.autoscaler == b.autoscaler && a.faults == b.faults &&
           a.resilience == b.resilience && a.slo == b.slo &&
           a.slo_set == b.slo_set && a.events == b.events;
  }
};

}  // namespace whisk::cluster
