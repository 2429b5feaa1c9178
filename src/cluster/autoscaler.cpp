#include "cluster/autoscaler.h"

#include <cmath>

#include "core/history.h"
#include "util/check.h"
#include "util/table.h"

namespace whisk::cluster {

// The band controllers check high > low in their constructors.
void AutoscalerTraits::validate(const AutoscalerSpec& spec) {
  (void)AutoscalerRegistry::instance().create(spec.name, spec);
}

namespace {

// Keep a per-group load metric inside a band: above `high` grows the group
// one node, below `low` shrinks it one node, one step per tick. target-util
// bands utilization (queued + executing per core), the classic
// CPU-utilization target rule. queue-depth bands the daemon backlog per
// active node, blind to executing work on purpose — it models the "queue
// depth" alarms real deployments scale on.
template <bool kQueueDepth>
class BandAutoscaler final : public Autoscaler {
 public:
  static std::vector<util::ParamDecl> params() {
    using util::number_param;
    if (kQueueDepth) {
      return {number_param("low", 0.5, ">= 0",
                           "queued calls per node below which it shrinks"),
              number_param("high", 4, "",
                           "queued calls per node above which it grows")};
    }
    return {number_param("low", 0.3, ">= 0",
                         "utilization below which the group shrinks"),
            number_param("high", 0.85, "",
                         "utilization above which the group grows")};
  }
  explicit BandAutoscaler(const AutoscalerSpec& spec)
      : low_(spec.number("low")), high_(spec.number("high")) {
    WHISK_CHECK(high_ > low_, ("autoscaler \"" + spec.name + "\": high = " +
                               util::fmt_g(high_) + " must exceed low = " +
                               util::fmt_g(low_))
                                  .c_str());
  }

  std::string_view name() const override {
    return kQueueDepth ? "queue-depth" : "target-util";
  }
  std::string help() const override {
    return kQueueDepth ? "scales on queued calls per active node: above "
                         "high grows, below low shrinks"
                       : "keeps per-group utilization (load per core) "
                         "inside [low, high]; one node step per tick";
  }
  std::size_t desired_nodes(const GroupObservation& group,
                            const ClusterObservation&) override {
    if (group.active == 0) return 0;
    const double load = kQueueDepth ? static_cast<double>(group.queued) /
                                          static_cast<double>(group.active)
                                    : group.utilization();
    if (load > high_) return group.active + 1;
    if (load < low_) return group.active - 1;
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
  static std::vector<util::ParamDecl> params() {
    return {util::number_param("window-s", 30, "> 0",
                               "arrival/completion horizon in seconds"),
            util::number_param("target", 0.7, "(0, 1]",
                               "utilization the demand is provisioned at")};
  }
  explicit PredictiveAutoscaler(const AutoscalerSpec& spec)
      : window_s_(spec.number("window-s")), target_(spec.number("target")) {}

  std::string_view name() const override { return "predictive"; }
  std::string help() const override {
    return "sizes each group for the arrival-rate x E(p) demand estimate "
           "over the last window-s seconds at `target` utilization";
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

// tick-s and cooldown-s are read by the Cluster driver, not the
// controller, but ride in every controller's spec.
std::vector<util::ParamDecl> driver_params() {
  return {util::number_param("tick-s", 5, "> 0",
                             "seconds between controller observations"),
          util::number_param(
              "cooldown-s", 60, ">= 0",
              "per-group minimum seconds between scaling actions")};
}

}  // namespace

AutoscalerRegistry::AutoscalerRegistry()
    : ComponentRegistry("autoscaler", &driver_params) {
  add<BandAutoscaler<false>>("target-util");
  add<BandAutoscaler<true>>("queue-depth");
  add<PredictiveAutoscaler>("predictive");
  register_alias("utilization", "target-util");
}

AutoscalerRegistry& AutoscalerRegistry::instance() {
  static auto* registry = new AutoscalerRegistry();
  return *registry;
}

std::unique_ptr<Autoscaler> make_autoscaler(const AutoscalerSpec& spec) {
  // folded() plus the value checks skips normalized()'s throwaway
  // instance: the returned construction checks the cross-parameter rules
  // itself. One controller object per Cluster.
  WHISK_CHECK(spec.enabled(),
              "make_autoscaler on \"none\": check enabled() first");
  const AutoscalerSpec folded = spec.folded();
  folded.check_values();
  return AutoscalerRegistry::instance().create(folded.name, folded);
}

}  // namespace whisk::cluster

template struct whisk::util::ComponentSpec<whisk::cluster::AutoscalerTraits>;
