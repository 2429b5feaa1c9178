#pragma once

#include <string_view>

#include "util/component_spec.h"

namespace whisk::workload {

class ScenarioRegistry;
struct ScenarioTraits;

// A scenario by registry name plus named parameters — the workload-side
// mirror of experiments::SchedulerSpec:
//
//   auto spec = ScenarioSpec::parse("uniform?intensity=60");
//   spec.to_string()  -> "uniform?intensity=60"
//
// See util::ComponentSpec for the grammar. Values are checked when the
// scenario is generated, not at parse time.
using ScenarioSpec = util::ComponentSpec<ScenarioTraits>;

struct ScenarioTraits {
  static constexpr std::string_view kDefaultName = "uniform";
  static constexpr bool kNoneReserved = false;
  static constexpr std::string_view kExample = "\"uniform?intensity=60\"";
  static ScenarioRegistry& registry();
  static void validate(const ScenarioSpec&) {}
};

}  // namespace whisk::workload
