#include "workload/scenario_spec.h"

#include "workload/scenario_registry.h"

template struct whisk::util::ComponentSpec<whisk::workload::ScenarioTraits>;
