#include "cluster/autoscaler.h"

#include <cmath>

#include "core/history.h"
#include "util/check.h"

namespace whisk::cluster {

AutoscalerRegistry& AutoscalerTraits::registry() {
  return AutoscalerRegistry::instance();
}

// Constructing the controller validates the parameter *values* too, so a
// bad value dies at parse time, not mid-sweep. The driver keys ride in
// every spec, so a bad cadence dies here too, not when the Cluster first
// reads it.
void AutoscalerTraits::validate(const AutoscalerSpec& spec) {
  (void)registry().create(spec.name, spec);
  const double tick = spec.number("tick-s", 5.0);
  WHISK_CHECK(tick > 0.0, ("autoscaler \"" + spec.name + "\": tick-s = " +
                           std::to_string(tick) + " must be > 0")
                              .c_str());
  const double cooldown = spec.number("cooldown-s", 60.0);
  WHISK_CHECK(cooldown >= 0.0,
              ("autoscaler \"" + spec.name + "\": cooldown-s = " +
               std::to_string(cooldown) + " must be >= 0")
                  .c_str());
}

const std::vector<util::ParamDecl>& AutoscalerTraits::common_params() {
  static const std::vector<util::ParamDecl> kCommon = {
      {"tick-s", "5", "seconds between controller observations"},
      {"cooldown-s", "60",
       "per-group minimum seconds between scaling actions"},
  };
  return kCommon;
}

namespace {

// Keep each group's utilization (queued + executing per core) inside a
// band: above `high` grows the group one node, below `low` shrinks it one
// node, one step per tick. The classic CPU-utilization target rule.
class TargetUtilAutoscaler final : public Autoscaler {
 public:
  explicit TargetUtilAutoscaler(const AutoscalerSpec& spec)
      : low_(spec.number("low", 0.3)), high_(spec.number("high", 0.85)) {
    WHISK_CHECK(low_ >= 0.0, ("autoscaler \"target-util\": low = " +
                              std::to_string(low_) + " must be >= 0")
                                 .c_str());
    WHISK_CHECK(high_ > low_, ("autoscaler \"target-util\": high = " +
                               std::to_string(high_) +
                               " must exceed low = " + std::to_string(low_))
                                  .c_str());
  }

  std::string_view name() const override { return "target-util"; }
  std::string help() const override {
    return "keeps per-group utilization (load per core) inside [low, high]; "
           "one node step per tick";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"low", "0.3", "utilization below which the group shrinks"},
            {"high", "0.85", "utilization above which the group grows"}};
  }
  std::size_t desired_nodes(const GroupObservation& group,
                            const ClusterObservation&) override {
    if (group.active == 0) return 0;
    const double util = group.utilization();
    if (util > high_) return group.active + 1;
    if (util < low_) return group.active - 1;
    return group.active;
  }

 private:
  double low_;
  double high_;
};

// React to the daemon backlog: more than `high` queued calls per active
// node grows the group, fewer than `low` shrinks it. Blind to executing
// work on purpose — it models the "queue depth" alarms real deployments
// scale on.
class QueueDepthAutoscaler final : public Autoscaler {
 public:
  explicit QueueDepthAutoscaler(const AutoscalerSpec& spec)
      : low_(spec.number("low", 0.5)), high_(spec.number("high", 4.0)) {
    WHISK_CHECK(low_ >= 0.0, ("autoscaler \"queue-depth\": low = " +
                              std::to_string(low_) + " must be >= 0")
                                 .c_str());
    WHISK_CHECK(high_ > low_, ("autoscaler \"queue-depth\": high = " +
                               std::to_string(high_) +
                               " must exceed low = " + std::to_string(low_))
                                  .c_str());
  }

  std::string_view name() const override { return "queue-depth"; }
  std::string help() const override {
    return "scales on queued calls per active node: above high grows, "
           "below low shrinks";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"low", "0.5", "queued calls per node below which it shrinks"},
            {"high", "4", "queued calls per node above which it grows"}};
  }
  std::size_t desired_nodes(const GroupObservation& group,
                            const ClusterObservation&) override {
    if (group.active == 0) return 0;
    const double per_node = static_cast<double>(group.queued) /
                            static_cast<double>(group.active);
    if (per_node > high_) return group.active + 1;
    if (per_node < low_) return group.active - 1;
    return group.active;
  }

 private:
  double low_;
  double high_;
};

// Provision for the *estimated* demand instead of the instantaneous load:
// arrivals over the last window-s seconds times each function's E(p) (the
// paper's runtime estimate) give the work rate in core-seconds per second;
// dividing by `target` utilization and the group's capacity share yields
// the node count to aim at directly, so the fleet can jump several nodes
// in one tick instead of creeping one step at a time.
class PredictiveAutoscaler final : public Autoscaler {
 public:
  explicit PredictiveAutoscaler(const AutoscalerSpec& spec)
      : window_s_(spec.number("window-s", 30.0)),
        target_(spec.number("target", 0.7)) {
    WHISK_CHECK(window_s_ > 0.0, ("autoscaler \"predictive\": window-s = " +
                                  std::to_string(window_s_) +
                                  " must be > 0")
                                     .c_str());
    WHISK_CHECK(target_ > 0.0 && target_ <= 1.0,
                ("autoscaler \"predictive\": target = " +
                 std::to_string(target_) + " must be in (0, 1]")
                    .c_str());
  }

  std::string_view name() const override { return "predictive"; }
  std::string help() const override {
    return "sizes each group for the arrival-rate x E(p) demand estimate "
           "over the last window-s seconds at `target` utilization";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"window-s", "30", "arrival/completion horizon in seconds"},
            {"target", "0.7", "utilization the demand is provisioned at"}};
  }
  double history_window_s() const override { return window_s_; }

  std::size_t desired_nodes(const GroupObservation& group,
                            const ClusterObservation& cluster) override {
    WHISK_CHECK(cluster.history != nullptr,
                "predictive autoscaler ticked without its controller-side "
                "history");
    double arrivals = 0.0;
    double demand_cores = 0.0;  // core-seconds of work arriving per second
    for (std::size_t fn = 0; fn < cluster.num_functions; ++fn) {
      const auto id = static_cast<workload::FunctionId>(fn);
      const std::size_t a =
          cluster.history->arrivals_within(id, window_s_, cluster.now);
      if (a == 0) continue;
      arrivals += static_cast<double>(a);
      demand_cores += static_cast<double>(a) / window_s_ *
                      cluster.history->expected_runtime(id);
    }
    if (arrivals == 0.0) {
      // Nothing arrived in the whole window: shrink one step once this
      // group's backlog is gone (the driver's min-nodes floor applies).
      return group.load() == 0.0 && group.active > 0 ? group.active - 1
                                                     : group.active;
    }
    if (demand_cores == 0.0) {
      // Arrivals but no completed call yet, so every E(p) is still 0
      // (paper Sec. IV-B); hold until the estimates warm up.
      return group.active;
    }
    const double group_cores =
        demand_cores / target_ * group.capacity_share;
    const double nodes =
        group_cores / static_cast<double>(group.cores_per_node);
    // ceil with a tolerance so "exactly n nodes of demand" asks for n.
    return static_cast<std::size_t>(std::ceil(nodes - 1e-9));
  }

 private:
  double window_s_;
  double target_;
};

void register_builtin_autoscalers(AutoscalerRegistry& registry) {
  registry.register_factory("target-util", [](const AutoscalerSpec& spec) {
    return std::make_unique<TargetUtilAutoscaler>(spec);
  });
  registry.register_factory("queue-depth", [](const AutoscalerSpec& spec) {
    return std::make_unique<QueueDepthAutoscaler>(spec);
  });
  registry.register_factory("predictive", [](const AutoscalerSpec& spec) {
    return std::make_unique<PredictiveAutoscaler>(spec);
  });
  registry.register_alias("utilization", "target-util");
}

}  // namespace

AutoscalerRegistry& AutoscalerRegistry::instance() {
  static AutoscalerRegistry* registry = [] {
    auto* r = new AutoscalerRegistry();
    register_builtin_autoscalers(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<Autoscaler> make_autoscaler(const AutoscalerSpec& spec) {
  // folded() skips normalized()'s throwaway validation instance: the
  // returned construction validates the parameter values itself. One
  // controller object per Cluster.
  WHISK_CHECK(spec.enabled(),
              "make_autoscaler on \"none\": check enabled() first");
  const AutoscalerSpec folded = spec.folded();
  return AutoscalerRegistry::instance().create(folded.name, folded);
}

}  // namespace whisk::cluster

template struct whisk::util::ComponentSpec<whisk::cluster::AutoscalerTraits>;
