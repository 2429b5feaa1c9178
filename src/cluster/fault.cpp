#include "cluster/fault.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/parse.h"

namespace whisk::cluster {

std::vector<FaultSpec> parse_fault_list(std::string_view text) {
  std::vector<FaultSpec> out;
  if (util::ascii_lower(util::trim_ws(text)) == "none") return out;
  for (std::string_view item : util::split_any(text, ",+")) {
    const std::string_view spec = util::trim_ws(item);
    if (spec.empty()) continue;
    FaultSpec parsed = FaultSpec::parse(spec);
    // "none" inside a list is a no-op entry, so `faults=none` and a list
    // that mixes "none" in both mean "nothing extra".
    if (parsed.enabled()) out.push_back(std::move(parsed));
  }
  return out;
}

std::string fault_list_to_string(const std::vector<FaultSpec>& faults,
                                 char sep) {
  if (faults.empty()) return "none";
  std::string out;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i > 0) out += sep;
    out += faults[i].to_string();
  }
  return out;
}

namespace {

// Poisson crash process over a group (or the fleet): each active node fails
// independently with mean time between failures mtbf-s, so the fleet-wide
// crash rate is active/mtbf; a crashed node is repaired (fresh cold invoker
// in the same slot) after an exponential mttr-s. The classic birth-death
// churn model production fleets are sized against.
class CrashRestartFault final : public FaultProcess {
 public:
  static std::vector<util::ParamDecl> params() {
    return {util::number_param("mtbf-s", 300, "> 0",
                               "per-node mean time between failures"),
            util::number_param("mttr-s", 30, "> 0",
                               "mean time to repair (restart) a crashed node"),
            util::text_param("group", "",
                             "restrict crashes to one deployment group")};
  }
  explicit CrashRestartFault(const FaultSpec& spec)
      : mtbf_s_(spec.number("mtbf-s")),
        mttr_s_(spec.number("mttr-s")),
        group_name_(util::ascii_lower(spec.text("group"))) {}

  std::string_view name() const override { return "crash-restart"; }
  std::string help() const override {
    return "per-node exponential MTBF/MTTR churn: active nodes crash at "
           "rate active/mtbf-s and restart (cold, in place) after "
           "~Exp(mttr-s)";
  }
  bool disruptive() const override { return true; }

  void start(FaultHost& host, sim::Rng rng) override {
    host_ = &host;
    rng_ = rng;
    group_ = group_name_.empty() ? FaultHost::npos
                                 : host.fault_group_index(group_name_);
    schedule_next();
  }

 private:
  void schedule_next() {
    if (host_->fault_workload_done()) return;
    const std::size_t active = host_->fault_active_count(group_);
    // An empty scope still re-arms at the single-node rate: crashed nodes
    // restart, so the scope usually refills before the next draw fires.
    const double rate =
        std::max<std::size_t>(active, 1) / mtbf_s_;
    host_->fault_schedule(rng_.exponential(rate), [this] { fire(); });
  }

  void fire() {
    if (host_->fault_workload_done()) return;
    const std::size_t active = host_->fault_active_count(group_);
    if (active > 0) {
      const std::size_t victim =
          host_->fault_active_at(group_, rng_.uniform_index(active));
      if (host_->fault_fail(victim)) {
        host_->fault_note_injected();
        host_->fault_schedule(rng_.exponential(1.0 / mttr_s_),
                              [this, victim] {
                                if (host_->fault_node_failed(victim)) {
                                  host_->fault_restart(victim);
                                }
                              });
      }
    }
    schedule_next();
  }

  double mtbf_s_;
  double mttr_s_;
  std::string group_name_;
  std::size_t group_ = FaultHost::npos;
  FaultHost* host_ = nullptr;
  sim::Rng rng_{0};
};

// Correlated churn of one specific node: the same member goes down and
// comes back over and over (~Exp(period-s) up, ~Exp(down-s) down, `count`
// cycles or forever). The adversarial input for circuit breakers: a
// memoryless balancer keeps feeding the flapping node, a breaker ejects it.
class FlapFault final : public FaultProcess {
 public:
  static std::vector<util::ParamDecl> params() {
    return {util::number_param("period-s", 60, "> 0",
                               "mean up-time between flaps"),
            util::number_param("down-s", 5, "> 0", "mean down-time per flap"),
            util::count_param("count", 0, "",
                              "flap cycles before stopping (0 = unlimited)"),
            util::count_param("node", 0, "",
                              "member index within the group (creation "
                              "order)"),
            util::text_param("group", "",
                             "deployment group of the node (first group "
                             "when empty)")};
  }
  explicit FlapFault(const FaultSpec& spec)
      : period_s_(spec.number("period-s")),
        down_s_(spec.number("down-s")),
        cycles_(spec.count("count")),
        member_(spec.count("node")),
        group_name_(util::ascii_lower(spec.text("group"))) {}

  std::string_view name() const override { return "flap"; }
  std::string help() const override {
    return "one node repeatedly fails and rejoins: up ~Exp(period-s), down "
           "~Exp(down-s), `count` cycles (0 = until the run ends)";
  }
  bool disruptive() const override { return true; }

  void start(FaultHost& host, sim::Rng rng) override {
    host_ = &host;
    rng_ = rng;
    group_ = group_name_.empty() ? 0 : host.fault_group_index(group_name_);
    schedule_next();
  }

 private:
  void schedule_next() {
    if (host_->fault_workload_done()) return;
    if (cycles_ != 0 && done_ >= cycles_) return;
    host_->fault_schedule(rng_.exponential(1.0 / period_s_),
                          [this] { fire(); });
  }

  void fire() {
    if (host_->fault_workload_done()) return;
    const std::size_t node = host_->fault_member(group_, member_);
    // The member may not exist yet (a later join) or be mid-drain/failed:
    // skip this cycle and keep flapping once it is back.
    if (node != FaultHost::npos && host_->fault_fail(node)) {
      host_->fault_note_injected();
      ++done_;
      host_->fault_schedule(rng_.exponential(1.0 / down_s_), [this, node] {
        if (host_->fault_node_failed(node)) host_->fault_restart(node);
      });
    }
    schedule_next();
  }

  double period_s_;
  double down_s_;
  std::size_t cycles_;
  std::size_t member_;
  std::string group_name_;
  std::size_t group_ = 0;
  std::size_t done_ = 0;
  FaultHost* host_ = nullptr;
  sim::Rng rng_{0};
};

// Straggler injection: a random active node's capacity drops by `factor`
// (every management op and execution stretched) for a ~Exp(duration-s)
// window; onsets arrive at rate active/mtbf-s. The failure mode hedged
// requests exist for — the node still answers, just late.
class SlowNodeFault final : public FaultProcess {
 public:
  static std::vector<util::ParamDecl> params() {
    return {util::number_param("mtbf-s", 120, "> 0",
                               "per-node mean time between slow windows"),
            util::number_param("duration-s", 30, "> 0",
                               "mean length of one slow window"),
            util::number_param("factor", 3, ">= 1",
                               "duration multiplier while slowed (>= 1)"),
            util::text_param("group", "",
                             "restrict stragglers to one deployment group")};
  }
  explicit SlowNodeFault(const FaultSpec& spec)
      : mtbf_s_(spec.number("mtbf-s")),
        duration_s_(spec.number("duration-s")),
        factor_(spec.number("factor")),
        group_name_(util::ascii_lower(spec.text("group"))) {}

  std::string_view name() const override { return "slow-node"; }
  std::string help() const override {
    return "straggler windows: a random active node runs `factor`x slower "
           "for ~Exp(duration-s); onsets at rate active/mtbf-s";
  }

  void start(FaultHost& host, sim::Rng rng) override {
    host_ = &host;
    rng_ = rng;
    group_ = group_name_.empty() ? FaultHost::npos
                                 : host.fault_group_index(group_name_);
    schedule_next();
  }

 private:
  void schedule_next() {
    if (host_->fault_workload_done()) return;
    const std::size_t active = host_->fault_active_count(group_);
    const double rate = std::max<std::size_t>(active, 1) / mtbf_s_;
    host_->fault_schedule(rng_.exponential(rate), [this] { fire(); });
  }

  void fire() {
    if (host_->fault_workload_done()) return;
    const std::size_t active = host_->fault_active_count(group_);
    if (active > 0) {
      const std::size_t victim =
          host_->fault_active_at(group_, rng_.uniform_index(active));
      host_->fault_set_speed(victim, factor_);
      host_->fault_note_injected();
      host_->fault_schedule(rng_.exponential(1.0 / duration_s_),
                            [this, victim] {
                              // A crash-restart in between already reset the
                              // fresh invoker to nominal; restoring again is
                              // harmless either way.
                              host_->fault_set_speed(victim, 1.0);
                            });
    }
    schedule_next();
  }

  double mtbf_s_;
  double duration_s_;
  double factor_;
  std::string group_name_;
  std::size_t group_ = FaultHost::npos;
  FaultHost* host_ = nullptr;
  sim::Rng rng_{0};
};

// A finished call whose completion never reaches the controller: the node
// did the work, the answer is lost on the return path. Without a resilience
// timeout nothing would ever recover such a call, so ClusterSpec rejects
// the combination at parse time.
class LostCompletionFault final : public FaultProcess {
 public:
  static std::vector<util::ParamDecl> params() {
    return {util::number_param("probability", 0.01, "[0, 1]",
                               "chance a completion is lost, per delivery")};
  }
  explicit LostCompletionFault(const FaultSpec& spec)
      : probability_(spec.number("probability")) {}

  std::string_view name() const override { return "lost-completion"; }
  std::string help() const override {
    return "each completion is silently dropped before the controller with "
           "`probability`; only a resilience timeout retry recovers the "
           "call";
  }
  bool drops_completions() const override { return true; }

  void start(FaultHost& host, sim::Rng rng) override {
    host_ = &host;
    rng_ = rng;
  }

  bool drop_completion(const metrics::CallRecord&) override {
    if (probability_ <= 0.0 || rng_.uniform() >= probability_) return false;
    host_->fault_note_injected();
    return true;
  }

 private:
  double probability_;
  FaultHost* host_ = nullptr;
  sim::Rng rng_{0};
};

}  // namespace

FaultRegistry::FaultRegistry() : ComponentRegistry("fault") {
  add<CrashRestartFault>("crash-restart");
  add<FlapFault>("flap");
  add<SlowNodeFault>("slow-node");
  add<LostCompletionFault>("lost-completion");
  register_alias("crash", "crash-restart");
  register_alias("straggler", "slow-node");
}

FaultRegistry& FaultRegistry::instance() {
  static auto* registry = new FaultRegistry();
  return *registry;
}

std::unique_ptr<FaultProcess> make_fault(const FaultSpec& spec) {
  WHISK_CHECK(spec.enabled(), "make_fault on \"none\": check enabled() first");
  const FaultSpec checked = spec.normalized();
  return FaultRegistry::instance().create(checked.name, checked);
}

bool fault_is_disruptive(const std::string& canonical_name) {
  return FaultSpec::probe(canonical_name).component->disruptive();
}

bool fault_drops_completions(const std::string& canonical_name) {
  return FaultSpec::probe(canonical_name).component->drops_completions();
}

}  // namespace whisk::cluster

template struct whisk::util::ComponentSpec<whisk::cluster::FaultTraits>;
