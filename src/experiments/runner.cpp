#include "experiments/runner.h"

#include <utility>

#include "cluster/cluster.h"
#include "experiments/workspace.h"
#include "sim/engine.h"
#include "util/check.h"
#include "workload/scenario_registry.h"

namespace whisk::experiments {

CellResult run_experiment(const ExperimentSpec& spec,
                          const workload::FunctionCatalog& cat) {
  // A single-use workspace is exactly the historical fresh-construction
  // path (cold engine, cold collector, scenario generated on first use);
  // campaigns keep one workspace per worker and amortize all of it.
  CellWorkspace workspace;
  return workspace.run(spec, cat);
}

std::vector<CellResult> run_repetitions(ExperimentSpec spec,
                                        const workload::FunctionCatalog& cat,
                                        int reps) {
  const std::uint64_t base_seed = spec.seed();
  std::vector<CellResult> out;
  out.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    spec.seed(base_seed + static_cast<std::uint64_t>(r));
    out.push_back(run_experiment(spec, cat));
  }
  return out;
}

std::vector<double> run_idle_function_benchmark(
    const workload::FunctionCatalog& cat, workload::FunctionId fn, int calls,
    std::uint64_t seed, int cores) {
  sim::Engine engine;
  cluster::ClusterParams cp;
  cp.invoker = "ours";
  cp.policy = "fifo";
  cp.node.cores = cores;

  cluster::Cluster cluster(engine, cat, cp, seed);
  cluster.warmup();

  // Closed loop: issue the next call only after the previous response
  // arrives (the paper benchmarks each function 50 times on an idle warmed
  // system).
  std::vector<double> responses;
  responses.reserve(static_cast<std::size_t>(calls));

  workload::Scenario one;
  one.calls.push_back(workload::CallRequest{0, fn, 0.0});
  cluster.run_scenario(one);
  std::size_t seen = 0;
  while (static_cast<int>(seen) < calls) {
    engine.run();
    const auto& col = cluster.collector();
    WHISK_CHECK(col.size() == seen + 1, "idle benchmark lost a call");
    responses.push_back(col.record(col.size() - 1).response());
    ++seen;
    if (static_cast<int>(seen) < calls) {
      workload::Scenario next;
      next.calls.push_back(workload::CallRequest{
          static_cast<workload::CallId>(seen), fn, engine.now() + 0.05});
      cluster.run_scenario(next);
    }
  }
  return responses;
}

}  // namespace whisk::experiments
