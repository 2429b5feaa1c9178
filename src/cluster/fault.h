#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/record.h"
#include "sim/random.h"
#include "sim/time.h"
#include "util/component_spec.h"
#include "util/registry.h"

namespace whisk::cluster {

class FaultRegistry;
struct FaultTraits;

// One stochastic fault process by registry name plus named parameters — the
// failure-model mirror of AutoscalerSpec:
//
//   auto spec = FaultSpec::parse("crash-restart?mtbf-s=120&mttr-s=15");
//   spec.to_string()  -> "crash-restart?mtbf-s=120&mttr-s=15"
//
// See util::ComponentSpec for the grammar. The reserved name "none" means
// no fault; normalized() range-checks the values against the declarations
// registered with each process.
//
// A deployment carries a *list* of fault specs (its `faults=` section);
// parse_fault_list splits on ',' (and the grid-safe '+') and drops "none"
// entries, so `faults=none` and an absent section mean the same thing.
using FaultSpec = util::ComponentSpec<FaultTraits>;

struct FaultTraits {
  static constexpr std::string_view kDefaultName = "none";
  static constexpr bool kNoneReserved = true;
  static constexpr std::string_view kExample =
      "\"crash-restart?mtbf-s=120&mttr-s=15\"";
  using Registry = FaultRegistry;
};

// Parse a ','/'+'-separated fault list ("none" or empty -> no faults).
[[nodiscard]] std::vector<FaultSpec> parse_fault_list(std::string_view text);
// Canonical rendering: specs joined by `sep` (',' in ClusterSpec sections,
// '+' inside campaign-axis items); an empty list renders as "none".
[[nodiscard]] std::string fault_list_to_string(
    const std::vector<FaultSpec>& faults, char sep);

// The cluster-side surface a fault process acts through. Implemented by
// Cluster; processes never touch nodes directly, so every mutation funnels
// through the same lifecycle bookkeeping the scheduled events use.
//
// All scheduling goes through fault_schedule so the cluster can cancel
// pending fault timers the moment the workload completes — otherwise a
// far-future next-crash draw would keep the engine ticking long after the
// last response returned.
class FaultHost {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  virtual ~FaultHost() = default;

  [[nodiscard]] virtual sim::SimTime fault_now() const = 0;
  virtual void fault_schedule(double delay_s, std::function<void()> fn) = 0;

  // Group ordinal for a (case-insensitive) deployment group name; aborts
  // listing the groups when unknown. Processes pass npos for "any group".
  [[nodiscard]] virtual std::size_t fault_group_index(
      std::string_view name) const = 0;
  // Active (routable) nodes of `group`, fleet-wide when group == npos.
  [[nodiscard]] virtual std::size_t fault_active_count(
      std::size_t group) const = 0;
  // Global node index of the k-th active node under the same scope.
  [[nodiscard]] virtual std::size_t fault_active_at(std::size_t group,
                                                    std::size_t k) const = 0;
  // Global node index of group member `member` (creation order), npos when
  // the member does not exist (yet).
  [[nodiscard]] virtual std::size_t fault_member(std::size_t group,
                                                 std::size_t member) const = 0;
  [[nodiscard]] virtual bool fault_node_active(std::size_t node) const = 0;
  [[nodiscard]] virtual bool fault_node_failed(std::size_t node) const = 0;

  // Crash an active node: its in-flight calls are re-submitted through the
  // controller exactly as a scheduled fail@t event does. False (no-op) when
  // the node is not active.
  virtual bool fault_fail(std::size_t node) = 0;
  // Restart a failed node in place: a fresh cold invoker takes the slot and
  // starts receiving calls. False (no-op) when the node is not failed.
  virtual bool fault_restart(std::size_t node) = 0;
  // Straggler control: multiply every sampled duration of the node by
  // `factor` (1.0 restores nominal speed). No-op on failed nodes.
  virtual void fault_set_speed(std::size_t node, double factor) = 0;

  // True once every expected call completed — processes stop rescheduling.
  [[nodiscard]] virtual bool fault_workload_done() const = 0;
  // Count one injected fault (the faults_injected cell column).
  virtual void fault_note_injected() = 0;
};

// A seeded stochastic fault process. Constructed per Cluster from its
// FaultSpec; start() receives the host and a private RNG stream forked from
// the cell seed, so campaigns stay byte-identical for any thread count.
class FaultProcess {
 public:
  virtual ~FaultProcess() = default;

  // Canonical registry name ("crash-restart", "flap", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::string help() const = 0;

  // True when the process can fail nodes — the cluster then enables
  // per-call in-flight tracking so interrupted calls can be re-submitted.
  [[nodiscard]] virtual bool disruptive() const { return false; }
  // True when the process may swallow completions (per-delivery hook).
  [[nodiscard]] virtual bool drops_completions() const { return false; }

  // Begin self-scheduling on the host. Called once, before the first call
  // is submitted.
  virtual void start(FaultHost& host, sim::Rng rng) {
    (void)host;
    (void)rng;
  }

  // Lost-completion hook: return true to swallow this finished call's
  // completion before it reaches the controller (the resilience layer's
  // timeout retry is then the only recovery). Only consulted on processes
  // whose drops_completions() is true.
  [[nodiscard]] virtual bool drop_completion(
      const metrics::CallRecord& record) {
    (void)record;
    return false;
  }
};

// The open set of fault processes, keyed by canonical lowercase name.
// Built-ins ("crash-restart", "flap", "slow-node", "lost-completion") are
// registered on first use; new processes can be added at runtime:
//
//   FaultRegistry::instance().add<MyFault>("my-fault");
//
// MyFault has a constructor from const FaultSpec& and a static params()
// declaring each parameter once (same contract as AutoscalerRegistry).
// "none" is not a registry entry.
class FaultRegistry final
    : public util::ComponentRegistry<FaultProcess, const FaultSpec&> {
 public:
  static FaultRegistry& instance();

 private:
  FaultRegistry();  // registers the built-ins
};

// Normalize `spec` against the registry and construct the process — the
// one-call surface used by the Cluster. `spec` must be enabled().
[[nodiscard]] std::unique_ptr<FaultProcess> make_fault(const FaultSpec& spec);

// Probe-derived properties by canonical name (cached): whether the process
// fails nodes / swallows completions. Used by ClusterSpec to decide
// in-flight tracking and to validate fault/resilience combinations without
// constructing per-cell probes.
[[nodiscard]] bool fault_is_disruptive(const std::string& canonical_name);
[[nodiscard]] bool fault_drops_completions(const std::string& canonical_name);

}  // namespace whisk::cluster

extern template struct whisk::util::ComponentSpec<whisk::cluster::FaultTraits>;
