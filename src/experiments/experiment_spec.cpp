#include "experiments/experiment_spec.h"

#include <functional>

#include "util/check.h"
#include "util/registry.h"

namespace whisk::experiments {
namespace {

// Value range per knob: physical rates/factors are non-negative; windows
// must be positive; counts must be whole and at least one. The checks also
// keep negative doubles away from the size_t/int casts below, where the
// conversion would be undefined.
enum class Range { kNonNegative, kPositive, kPositiveCount };

struct OverrideKnob {
  std::string name;
  std::function<void(node::NodeParams&, double)> apply;
  Range range = Range::kNonNegative;
};

// The named ablation knobs. Adding one is a single row here; the old API
// needed a new sentinel field threaded through every layer.
const std::vector<OverrideKnob>& override_table() {
  static const std::vector<OverrideKnob> kTable = {
      {"our_post_factor_loaded",
       [](node::NodeParams& p, double v) { p.our_post_factor_loaded = v; }},
      {"strain_per_container",
       [](node::NodeParams& p, double v) { p.strain_per_container = v; }},
      {"context_switch_beta",
       [](node::NodeParams& p, double v) { p.context_switch_beta = v; }},
      {"history_window",
       [](node::NodeParams& p, double v) {
         p.history_window = static_cast<std::size_t>(v);
       },
       Range::kPositiveCount},
      {"fc_window",
       [](node::NodeParams& p, double v) { p.policy.fc_window = v; },
       Range::kPositive},
      {"sjf_aging_weight",
       [](node::NodeParams& p, double v) { p.policy.sjf_aging_weight = v; }},
      {"dispatch_daemon_gate",
       [](node::NodeParams& p, double v) {
         p.dispatch_daemon_gate = static_cast<int>(v);
       },
       Range::kPositiveCount},
  };
  return kTable;
}

const OverrideKnob* find_knob(const std::string& name) {
  for (const auto& knob : override_table()) {
    if (knob.name == name) return &knob;
  }
  return nullptr;
}

}  // namespace

ExperimentSpec& ExperimentSpec::scheduler(SchedulerSpec spec) {
  scheduler_ = spec.normalized();
  return *this;
}

ExperimentSpec& ExperimentSpec::scheduler(std::string_view text) {
  scheduler_ = SchedulerSpec::parse(text);
  return *this;
}

ExperimentSpec& ExperimentSpec::cores(int value) {
  WHISK_CHECK(value > 0, "cores must be positive");
  cores_ = value;
  return *this;
}

ExperimentSpec& ExperimentSpec::nodes(int value) {
  return cluster(cluster::ClusterSpec::homogeneous(value));
}

ExperimentSpec& ExperimentSpec::cluster(cluster::ClusterSpec spec) {
  cluster_ = spec.normalized();
  return *this;
}

ExperimentSpec& ExperimentSpec::cluster(std::string_view text) {
  return cluster(cluster::ClusterSpec::parse(text));
}

ExperimentSpec& ExperimentSpec::workflow(workload::WorkflowSpec spec) {
  workflow_ = spec.normalized();
  return *this;
}

ExperimentSpec& ExperimentSpec::workflow(std::string_view text) {
  return workflow(workload::WorkflowSpec::parse(text));
}

ExperimentSpec& ExperimentSpec::memory_mb(double value) {
  WHISK_CHECK(value > 0.0, "memory_mb must be positive");
  memory_mb_ = value;
  return *this;
}

ExperimentSpec& ExperimentSpec::scenario(workload::ScenarioSpec spec) {
  scenario_ = spec.normalized();
  return *this;
}

ExperimentSpec& ExperimentSpec::scenario(std::string_view text) {
  scenario_ = workload::ScenarioSpec::parse(text);
  return *this;
}

int ExperimentSpec::intensity() const {
  return static_cast<int>(
      scenario_.count("intensity", workload::kPaperIntensity));
}

workload::ScenarioContext ExperimentSpec::scenario_context(
    const workload::FunctionCatalog& catalog) const {
  workload::ScenarioContext ctx;
  ctx.catalog = &catalog;
  // Per-group core overrides fold into one total, so the paper's
  // 1.1 * cores * v sizing scales with the real capacity.
  ctx.cores = cluster_.initial_cores(cores_);
  ctx.nodes = 1;
  return ctx;
}

ExperimentSpec& ExperimentSpec::seed(std::uint64_t value) {
  seed_ = value;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_override(std::string_view name,
                                              double value) {
  const std::string key = util::ascii_lower(name);
  const OverrideKnob* knob = find_knob(key);
  if (knob == nullptr) {
    WHISK_CHECK(false, ("unknown experiment override \"" + std::string(name) +
                        "\"; valid overrides: " + util::join(override_names()))
                           .c_str());
  }
  const bool ok =
      knob->range == Range::kNonNegative
          ? value >= 0.0
          : knob->range == Range::kPositive
                ? value > 0.0
                : value >= 1.0 && value == static_cast<double>(
                                              static_cast<std::size_t>(value));
  if (!ok) {
    const char* want = knob->range == Range::kNonNegative
                           ? "a value >= 0"
                           : knob->range == Range::kPositive
                                 ? "a value > 0"
                                 : "a whole number >= 1";
    WHISK_CHECK(false, ("experiment override \"" + key + "\" = " +
                        std::to_string(value) + " is out of range; it needs " +
                        want)
                           .c_str());
  }
  overrides_[key] = value;
  return *this;
}

const std::vector<std::string>& ExperimentSpec::override_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& knob : override_table()) {
      names.push_back(knob.name);
    }
    return names;
  }();
  return kNames;
}

node::NodeParams ExperimentSpec::node_params() const {
  node::NodeParams p;
  p.cores = cores_;
  p.memory_limit_mb = memory_mb_;
  for (const auto& [name, value] : overrides_) {
    const OverrideKnob* knob = find_knob(name);
    WHISK_CHECK(knob != nullptr, "override validated at insertion");
    knob->apply(p, value);
  }
  return p;
}

}  // namespace whisk::experiments
