#include "workload/scenario_spec.h"

#include "workload/scenario_registry.h"

namespace whisk::workload {

ScenarioRegistry& ScenarioTraits::registry() {
  return ScenarioRegistry::instance();
}

}  // namespace whisk::workload

template struct whisk::util::ComponentSpec<whisk::workload::ScenarioTraits>;
