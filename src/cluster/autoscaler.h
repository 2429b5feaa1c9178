#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "util/component_spec.h"
#include "util/registry.h"

namespace whisk::core {
class RuntimeHistory;
}  // namespace whisk::core

namespace whisk::cluster {

class AutoscalerRegistry;
struct AutoscalerTraits;

// A closed-loop scaling controller by registry name plus named parameters —
// the autoscaling mirror of container::KeepAliveSpec:
//
//   auto spec = AutoscalerSpec::parse("target-util?low=0.3&high=0.85");
//   spec.to_string()  -> "target-util?high=0.85&low=0.3"
//
// See util::ComponentSpec for the grammar. The reserved name "none" (the
// default) means closed-loop scaling is off. Every controller also accepts
// the driver keys tick-s / cooldown-s; normalized() range-checks every value
// against its declaration and constructs the controller for the rules that
// span parameters (high > low).
using AutoscalerSpec = util::ComponentSpec<AutoscalerTraits>;

struct AutoscalerTraits {
  static constexpr std::string_view kDefaultName = "none";
  static constexpr bool kNoneReserved = true;
  static constexpr std::string_view kExample =
      "\"target-util?low=0.3&high=0.85\"";
  using Registry = AutoscalerRegistry;
  static void validate(const AutoscalerSpec& spec);
};

// What a controller observes about one node group at a tick. Draining,
// drained and failed nodes are excluded — the controller reasons about the
// routable slice exactly as the load balancer sees it.
struct GroupObservation {
  std::size_t group = 0;   // ordinal in the deployment's group list
  std::size_t active = 0;  // routable nodes right now
  int cores_per_node = 0;  // the group's effective cores override
  // This group's share of the deployment's t=0 core capacity, in (0, 1] —
  // how fleet-wide demand estimates are apportioned across groups.
  double capacity_share = 1.0;
  std::size_t queued = 0;     // sum of daemon queue lengths, active nodes
  std::size_t executing = 0;  // sum of executing calls, active nodes

  [[nodiscard]] double load() const {
    return static_cast<double>(queued + executing);
  }
  [[nodiscard]] double utilization() const {
    const double capacity =
        static_cast<double>(active) * static_cast<double>(cores_per_node);
    return capacity > 0.0 ? load() / capacity : 0.0;
  }
};

// Cluster-wide facts shared by every group's decision at one tick.
struct ClusterObservation {
  sim::SimTime now = 0.0;
  std::size_t num_functions = 0;
  // Controller-side arrival/completion history; non-null exactly when the
  // controller's history_window_s() is positive.
  const core::RuntimeHistory* history = nullptr;
};

// Decides how many active nodes each group should have — the reactive
// replacement for the pre-scheduled lifecycle events of ClusterSpec. The
// Cluster drives it on a fixed tick: observe every group, ask for the
// desired size, clamp to the group's min-nodes/max-nodes bounds, apply the
// cooldown, and emit add_node (cold joins) or drain (newest active node
// first) through the same lifecycle machinery scheduled events use.
//
// Controllers are constructed per Cluster, so they may keep state.
class Autoscaler {
 public:
  virtual ~Autoscaler() = default;

  // Canonical registry name ("target-util", "queue-depth", "predictive").
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string help() const = 0;

  // Horizon (seconds) of the controller-side RuntimeHistory this controller
  // wants, or 0 for none. A positive value makes the Cluster feed a
  // dedicated history with every arrival and completion and hand it to
  // desired_nodes() via ClusterObservation::history.
  [[nodiscard]] virtual double history_window_s() const { return 0.0; }

  // Desired active node count for `group`. The driver clamps the answer to
  // the group's bounds and rate-limits it with the cooldown; returning
  // group.active means "hold".
  [[nodiscard]] virtual std::size_t desired_nodes(
      const GroupObservation& group, const ClusterObservation& cluster) = 0;
};

// The open set of scaling controllers, keyed by canonical lowercase name.
// Built-ins ("target-util", "queue-depth", "predictive") are registered on
// first use; new controllers can be added at runtime:
//
//   AutoscalerRegistry::instance().add<MyController>("my-controller");
//
// MyController has a constructor from const AutoscalerSpec& and a static
// params() that declares each parameter once: its type, default and range,
// e.g. util::number_param("gain", 0.5, "(0, 1]", "step per tick"). The
// spec code range-checks every set value against it, and the controller
// reads its values with spec.number(key) / spec.count(key), the declared
// default applying when unset; only rules spanning parameters are checked
// in the constructor.
// "none" is not a registry entry: an AutoscalerSpec that is not enabled()
// never reaches the registry.
//
// Unknown names abort with a message listing every registered name.
class AutoscalerRegistry final
    : public util::ComponentRegistry<Autoscaler, const AutoscalerSpec&> {
 public:
  static AutoscalerRegistry& instance();

 private:
  AutoscalerRegistry();  // registers the built-ins and the driver keys
};

// Validate `spec` against the registry and construct the controller — the
// one-call surface used by the Cluster. `spec` must be enabled().
[[nodiscard]] std::unique_ptr<Autoscaler> make_autoscaler(
    const AutoscalerSpec& spec);

}  // namespace whisk::cluster

extern template struct whisk::util::ComponentSpec<whisk::cluster::AutoscalerTraits>;
