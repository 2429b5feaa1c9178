#include "container/keep_alive.h"

#include <limits>

#include "util/check.h"

namespace whisk::container {

namespace {

// Least-recently-used among the candidates satisfying `pred`:
// strict-minimum scan in presentation order, first candidate winning ties
// — exactly the rule the pool hardcoded before the registry existed (the
// paper-pinned behaviour). Returns the candidate count of
// std::span::size() when nothing satisfies the predicate.
template <typename Pred>
std::size_t lru_scan_where(std::span<const IdleCandidate> candidates,
                           Pred pred) {
  std::size_t best = candidates.size();
  sim::SimTime oldest = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!pred(candidates[i])) continue;
    if (best == candidates.size() || candidates[i].last_used < oldest) {
      best = i;
      oldest = candidates[i].last_used;
    }
  }
  return best;
}

std::size_t lru_scan(std::span<const IdleCandidate> candidates) {
  return lru_scan_where(candidates, [](const IdleCandidate&) { return true; });
}

// The stock rule: keep everything until memory pressure, then evict the
// least recently used idle container first.
class LruKeepAlive final : public KeepAlivePolicy {
 public:
  explicit LruKeepAlive(const KeepAliveSpec&) {}
  std::string_view name() const override { return "lru"; }
  std::size_t victim(std::span<const IdleCandidate> candidates) override {
    return lru_scan(candidates);
  }
};

// Fixed keep-alive (OpenWhisk-style TTL): an idle container is reclaimed
// once it has sat unused for `idle-s` seconds, cold-starting the next call
// of its function; pressure evictions still go oldest-first.
class TtlKeepAlive final : public KeepAlivePolicy {
 public:
  static std::vector<util::ParamDecl> params() {
    return {util::number_param(
        "idle-s", 600, "> 0",
        "seconds an idle container survives before reclamation")};
  }
  explicit TtlKeepAlive(const KeepAliveSpec& spec)
      : idle_s_(spec.number("idle-s")) {}

  std::string_view name() const override { return "ttl"; }
  std::size_t victim(std::span<const IdleCandidate> candidates) override {
    return lru_scan(candidates);
  }
  bool may_expire() const override { return true; }
  double min_idle_s() const override { return idle_s_; }
  bool expired(const IdleCandidate& candidate,
               sim::SimTime now) const override {
    return now - candidate.last_used > idle_s_;
  }

 private:
  double idle_s_;
};

// Prewarm floor: keep at least `floor` idle containers per function warm.
// Pressure evictions pick the LRU container among functions above their
// floor; when every candidate is at or below the floor the floor goes soft
// and plain LRU applies (a hard floor could deadlock a fully-pinned pool).
class PoolTargetKeepAlive final : public KeepAlivePolicy {
 public:
  static std::vector<util::ParamDecl> params() {
    return {util::count_param(
        "floor", 1, "", "idle containers per function shielded from eviction")};
  }
  explicit PoolTargetKeepAlive(const KeepAliveSpec& spec)
      : floor_(spec.count("floor")) {}

  std::string_view name() const override { return "pool-target"; }
  std::size_t victim(std::span<const IdleCandidate> candidates) override {
    const std::size_t above_floor =
        lru_scan_where(candidates, [this](const IdleCandidate& c) {
          return c.idle_of_function > floor_;
        });
    return above_floor < candidates.size() ? above_floor
                                           : lru_scan(candidates);
  }

 private:
  std::size_t floor_;
};

}  // namespace

KeepAlivePolicyRegistry::KeepAlivePolicyRegistry()
    : ComponentRegistry("keep-alive policy") {
  add<LruKeepAlive>("lru");
  add<TtlKeepAlive>("ttl");
  add<PoolTargetKeepAlive>("pool-target");
  register_alias("fixed", "ttl");
}

KeepAlivePolicyRegistry& KeepAlivePolicyRegistry::instance() {
  static auto* registry = new KeepAlivePolicyRegistry();
  return *registry;
}

std::unique_ptr<KeepAlivePolicy> make_keep_alive(const KeepAliveSpec& spec) {
  // One policy object per call — this runs once per node per campaign cell.
  const KeepAliveSpec checked = spec.normalized();
  return KeepAlivePolicyRegistry::instance().create(checked.name, checked);
}

}  // namespace whisk::container

template struct whisk::util::ComponentSpec<whisk::container::KeepAliveTraits>;
