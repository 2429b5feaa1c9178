#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "util/component_spec.h"
#include "util/registry.h"
#include "workload/function.h"

namespace whisk::container {

using ContainerId = std::int64_t;

inline constexpr ContainerId kInvalidContainer = -1;

class KeepAlivePolicyRegistry;
struct KeepAliveTraits;

// A keep-alive policy by registry name plus named parameters — the
// container-layer mirror of workload::ScenarioSpec:
//
//   auto spec = KeepAliveSpec::parse("ttl?idle-s=600");
//   spec.to_string()  -> "ttl?idle-s=600"
//
// See util::ComponentSpec for the grammar; normalized() validates the
// values by constructing the policy.
using KeepAliveSpec = util::ComponentSpec<KeepAliveTraits>;

struct KeepAliveTraits {
  static constexpr std::string_view kDefaultName = "lru";
  static constexpr bool kNoneReserved = false;
  static constexpr std::string_view kExample = "\"ttl?idle-s=600\"";
  static KeepAlivePolicyRegistry& registry();
  static void validate(const KeepAliveSpec& spec);
};

// One idle-container eviction candidate, as the pool presents it to the
// policy. Candidates are listed in the pool's internal free-pool order,
// which is stable within a run.
struct IdleCandidate {
  ContainerId id = kInvalidContainer;
  workload::FunctionId function = workload::kInvalidFunction;
  double memory_mb = 0.0;
  sim::SimTime last_used = 0.0;
  // Idle containers of the same function currently in the pool (including
  // this one) — what floor-keeping policies compare against.
  std::size_t idle_of_function = 0;
};

// Decides which idle containers a node keeps warm and which it reclaims —
// the previously-hardcoded LRU rule, now an open registry surface. Two
// hooks:
//
//   * victim() picks the next container to evict under memory pressure
//     (the pool evicts one at a time until the requested memory is free);
//   * expired() marks idle containers whose keep-alive lapsed at `now`;
//     the invoker sweeps them out before each dispatch round, so a warm
//     container idle past its TTL yields a cold start, as on a real fleet.
//
// Policies are constructed per node (per ContainerPool), so they may keep
// state.
class KeepAlivePolicy {
 public:
  virtual ~KeepAlivePolicy() = default;

  // Canonical registry name ("lru", "ttl", "pool-target", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::vector<util::ParamDecl> params() const {
    return {};
  }

  // Index of the eviction victim among `candidates` (never empty). The
  // pool destroys the chosen container; busy/creating/prewarm containers
  // are never offered.
  [[nodiscard]] virtual std::size_t victim(
      std::span<const IdleCandidate> candidates) = 0;

  // Fast gate: false means expired() never returns true, letting the pool
  // skip the sweep entirely (the LRU hot path pays nothing).
  [[nodiscard]] virtual bool may_expire() const { return false; }
  // Optional sweep-skip bound for expiring policies: expired() must never
  // return true for a candidate idle for less than min_idle_s() seconds —
  // the pool uses it to skip whole sweeps while even its oldest idle
  // container is young. Policies that leave the +infinity default simply
  // pay a scan per sweep; expiry still works.
  [[nodiscard]] virtual double min_idle_s() const {
    return std::numeric_limits<double>::infinity();
  }
  [[nodiscard]] virtual bool expired(const IdleCandidate& candidate,
                                     sim::SimTime now) const {
    (void)candidate;
    (void)now;
    return false;
  }
};

// The open set of keep-alive policies, keyed by canonical lowercase name.
// Built-ins ("lru", "ttl", "pool-target") are registered on first use; new
// policies can be added at runtime:
//
//   KeepAlivePolicyRegistry::instance().register_factory(
//       "my-policy", [](const KeepAliveSpec& spec) {
//         return std::make_unique<MyPolicy>(spec);
//       });
//
// Factory contract: spec validation discovers a policy's declared keys by
// constructing a probe with an *empty* parameter set, so every parameter
// must have a usable default (read it with spec.number(key, fallback) /
// spec.count(key, fallback), never require presence). Out-of-range
// *values* should still abort loudly — that check runs with the user's
// actual parameters.
//
// Unknown names abort with a message listing every registered name.
class KeepAlivePolicyRegistry final
    : public util::FactoryRegistry<KeepAlivePolicy, const KeepAliveSpec&> {
 public:
  static KeepAlivePolicyRegistry& instance();

 private:
  KeepAlivePolicyRegistry() : FactoryRegistry("keep-alive policy") {}
};

// Validate `spec` against the registry and construct the policy — the
// one-call surface used by the container pool.
[[nodiscard]] std::unique_ptr<KeepAlivePolicy> make_keep_alive(
    const KeepAliveSpec& spec);

}  // namespace whisk::container

extern template struct whisk::util::ComponentSpec<whisk::container::KeepAliveTraits>;
