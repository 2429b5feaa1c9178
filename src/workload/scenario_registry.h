#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/random.h"
#include "util/registry.h"
#include "workload/function.h"
#include "workload/scenario.h"
#include "workload/scenario_spec.h"

namespace whisk::workload {

// The paper's load knob v when a scenario's intensity= parameter is
// omitted.
inline constexpr int kPaperIntensity = 30;

// Deployment-side knobs a scenario generator may scale with. The paper's
// bursts size themselves as 1.1 * (nodes * cores) * intensity, where the
// intensity is the scenario's own parameter (default kPaperIntensity);
// trace replays and rate-driven processes may ignore everything but the
// catalog.
struct ScenarioContext {
  const FunctionCatalog* catalog = nullptr;
  int cores = 10;  // per node
  int nodes = 1;
};

// One registered scenario generator: its declared parameters plus the
// generation recipe (usually compose_scenario of an ArrivalProcess x
// FunctionMix). Stateless: create() hands out a fresh def, generate() takes
// everything it needs.
class ScenarioDef {
 public:
  virtual ~ScenarioDef() = default;

  [[nodiscard]] virtual std::string help() const = 0;
  // Every parameter, declared once with its type, default and range;
  // make_scenario range-checks the values before generate() reads them.
  [[nodiscard]] virtual std::vector<util::ParamDecl> params() const = 0;
  [[nodiscard]] virtual Scenario generate(const ScenarioSpec& spec,
                                          const ScenarioContext& ctx,
                                          sim::Rng& rng) const = 0;
};

// The open set of workload scenarios, keyed by canonical lowercase name.
// The paper's three scenarios plus the synthetic arrival processes are
// registered on first use; anything else can be added at runtime:
//
//   ScenarioRegistry::instance().add<MyScenarioDef>("my-scenario");
//   auto s = make_scenario("my-scenario?knob=3", ctx, rng);
//
// Unknown names abort with a message listing every registered name.
class ScenarioRegistry final : public util::ComponentRegistry<ScenarioDef> {
 public:
  static ScenarioRegistry& instance();

 private:
  // Registers the built-ins (builtin_scenarios.cpp): uniform, fixed-total,
  // fairness, poisson, bursty (alias mmpp), diurnal, trace.
  ScenarioRegistry();
};

// Validate `spec` against the registry and run the registered generator —
// the one-call surface used by the experiment runner and the tools.
[[nodiscard]] Scenario make_scenario(const ScenarioSpec& spec,
                                     const ScenarioContext& ctx,
                                     sim::Rng& rng);
[[nodiscard]] Scenario make_scenario(std::string_view spec,
                                     const ScenarioContext& ctx,
                                     sim::Rng& rng);

}  // namespace whisk::workload

extern template struct whisk::util::ComponentSpec<whisk::workload::ScenarioTraits>;
