#include "workload/scenario_registry.h"

#include "util/check.h"

namespace whisk::workload {

ScenarioRegistry& ScenarioRegistry::instance() {
  static auto* registry = new ScenarioRegistry();
  return *registry;
}

Scenario make_scenario(const ScenarioSpec& spec, const ScenarioContext& ctx,
                       sim::Rng& rng) {
  WHISK_CHECK(ctx.catalog != nullptr,
              "ScenarioContext.catalog must point at a FunctionCatalog");
  WHISK_CHECK(ctx.catalog->size() > 0, "scenario needs a non-empty catalog");
  const ScenarioSpec normalized = spec.normalized();
  normalized.check_values();
  const auto def = ScenarioRegistry::instance().create(normalized.name);
  return def->generate(normalized, ctx, rng);
}

Scenario make_scenario(std::string_view spec, const ScenarioContext& ctx,
                       sim::Rng& rng) {
  return make_scenario(ScenarioSpec::parse(spec), ctx, rng);
}

}  // namespace whisk::workload
