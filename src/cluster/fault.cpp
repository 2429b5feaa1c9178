#include "cluster/fault.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/parse.h"

namespace whisk::cluster {

FaultRegistry& FaultTraits::registry() { return FaultRegistry::instance(); }

// Constructing the process validates the parameter *values* too, so a bad
// MTBF dies at parse time, not mid-sweep.
void FaultTraits::validate(const FaultSpec& spec) {
  (void)registry().create(spec.name, spec);
}

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
  explicit CrashRestartFault(const FaultSpec& spec)
      : mtbf_s_(spec.number("mtbf-s", 300.0)),
        mttr_s_(spec.number("mttr-s", 30.0)),
        group_name_(util::ascii_lower(spec.text("group"))) {
    WHISK_CHECK(mtbf_s_ > 0.0, ("fault \"crash-restart\": mtbf-s = " +
                                std::to_string(mtbf_s_) + " must be > 0")
                                   .c_str());
    WHISK_CHECK(mttr_s_ > 0.0, ("fault \"crash-restart\": mttr-s = " +
                                std::to_string(mttr_s_) + " must be > 0")
                                   .c_str());
  }

  std::string_view name() const override { return "crash-restart"; }
  std::string help() const override {
    return "per-node exponential MTBF/MTTR churn: active nodes crash at "
           "rate active/mtbf-s and restart (cold, in place) after "
           "~Exp(mttr-s)";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"mtbf-s", "300", "per-node mean time between failures"},
            {"mttr-s", "30", "mean time to repair (restart) a crashed node"},
            {"group", "", "restrict crashes to one deployment group"}};
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
  explicit FlapFault(const FaultSpec& spec)
      : period_s_(spec.number("period-s", 60.0)),
        down_s_(spec.number("down-s", 5.0)),
        cycles_(spec.count("count", 0)),
        member_(spec.count("node", 0)),
        group_name_(util::ascii_lower(spec.text("group"))) {
    WHISK_CHECK(period_s_ > 0.0, ("fault \"flap\": period-s = " +
                                  std::to_string(period_s_) +
                                  " must be > 0")
                                     .c_str());
    WHISK_CHECK(down_s_ > 0.0, ("fault \"flap\": down-s = " +
                                std::to_string(down_s_) + " must be > 0")
                                   .c_str());
  }

  std::string_view name() const override { return "flap"; }
  std::string help() const override {
    return "one node repeatedly fails and rejoins: up ~Exp(period-s), down "
           "~Exp(down-s), `count` cycles (0 = until the run ends)";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"period-s", "60", "mean up-time between flaps"},
            {"down-s", "5", "mean down-time per flap"},
            {"count", "0", "flap cycles before stopping (0 = unlimited)"},
            {"node", "0", "member index within the group (creation order)"},
            {"group", "", "deployment group of the node (first group when "
                          "empty)"}};
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
  explicit SlowNodeFault(const FaultSpec& spec)
      : mtbf_s_(spec.number("mtbf-s", 120.0)),
        duration_s_(spec.number("duration-s", 30.0)),
        factor_(spec.number("factor", 3.0)),
        group_name_(util::ascii_lower(spec.text("group"))) {
    WHISK_CHECK(mtbf_s_ > 0.0, ("fault \"slow-node\": mtbf-s = " +
                                std::to_string(mtbf_s_) + " must be > 0")
                                   .c_str());
    WHISK_CHECK(duration_s_ > 0.0, ("fault \"slow-node\": duration-s = " +
                                    std::to_string(duration_s_) +
                                    " must be > 0")
                                       .c_str());
    WHISK_CHECK(factor_ >= 1.0, ("fault \"slow-node\": factor = " +
                                 std::to_string(factor_) +
                                 " must be >= 1 (a slowdown multiplier)")
                                    .c_str());
  }

  std::string_view name() const override { return "slow-node"; }
  std::string help() const override {
    return "straggler windows: a random active node runs `factor`x slower "
           "for ~Exp(duration-s); onsets at rate active/mtbf-s";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"mtbf-s", "120", "per-node mean time between slow windows"},
            {"duration-s", "30", "mean length of one slow window"},
            {"factor", "3", "duration multiplier while slowed (>= 1)"},
            {"group", "", "restrict stragglers to one deployment group"}};
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
  explicit LostCompletionFault(const FaultSpec& spec)
      : probability_(spec.number("probability", 0.01)) {
    WHISK_CHECK(probability_ >= 0.0 && probability_ <= 1.0,
                ("fault \"lost-completion\": probability = " +
                 std::to_string(probability_) + " must be in [0, 1]")
                    .c_str());
  }

  std::string_view name() const override { return "lost-completion"; }
  std::string help() const override {
    return "each completion is silently dropped before the controller with "
           "`probability`; only a resilience timeout retry recovers the "
           "call";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"probability", "0.01",
             "chance a completion is lost, per delivery"}};
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

void register_builtin_faults(FaultRegistry& registry) {
  registry.register_factory("crash-restart", [](const FaultSpec& spec) {
    return std::make_unique<CrashRestartFault>(spec);
  });
  registry.register_factory("flap", [](const FaultSpec& spec) {
    return std::make_unique<FlapFault>(spec);
  });
  registry.register_factory("slow-node", [](const FaultSpec& spec) {
    return std::make_unique<SlowNodeFault>(spec);
  });
  registry.register_factory("lost-completion", [](const FaultSpec& spec) {
    return std::make_unique<LostCompletionFault>(spec);
  });
  registry.register_alias("crash", "crash-restart");
  registry.register_alias("straggler", "slow-node");
}

}  // namespace

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry* registry = [] {
    auto* r = new FaultRegistry();
    register_builtin_faults(*r);
    return r;
  }();
  return *registry;
}

std::unique_ptr<FaultProcess> make_fault(const FaultSpec& spec) {
  WHISK_CHECK(spec.enabled(), "make_fault on \"none\": check enabled() first");
  const FaultSpec folded = spec.folded();
  return FaultRegistry::instance().create(folded.name, folded);
}

bool fault_is_disruptive(const std::string& canonical_name) {
  return FaultSpec::probe(canonical_name).component->disruptive();
}

bool fault_drops_completions(const std::string& canonical_name) {
  return FaultSpec::probe(canonical_name).component->drops_completions();
}

}  // namespace whisk::cluster

template struct whisk::util::ComponentSpec<whisk::cluster::FaultTraits>;
