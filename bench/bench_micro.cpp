// Substrate micro-benchmarks (google-benchmark): throughput of the event
// engine, the policy priority computation, the pending queue and the
// container pool, plus one end-to-end experiment benchmark.
#include <benchmark/benchmark.h>

#include "container/pool.h"
#include "core/pending_queue.h"
#include "core/policy.h"
#include "experiments/runner.h"
#include "sim/engine.h"
#include "sim/random.h"

using namespace whisk;

namespace {

void BM_EngineScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

void BM_RngLognormal(benchmark::State& state) {
  sim::Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal(0.0, 0.3));
  }
}
BENCHMARK(BM_RngLognormal);

const std::vector<std::string>& micro_policy_names() {
  static const std::vector<std::string> kNames = {"fifo", "sept", "fc",
                                                  "sjf-aging"};
  return kNames;
}

void BM_PolicyPriority(benchmark::State& state) {
  const auto& name = micro_policy_names().at(
      static_cast<std::size_t>(state.range(0)));
  state.SetLabel(name);
  auto policy = core::make_policy(name);
  core::RuntimeHistory history(10);
  for (int f = 0; f < 11; ++f) {
    for (int k = 0; k < 10; ++k) {
      history.record_runtime(f, 0.5 + 0.1 * k, static_cast<double>(k));
    }
    history.record_arrival(f, 9.0);
  }
  double t = 10.0;
  for (auto _ : state) {
    t += 0.001;
    const core::PolicyContext ctx{t, static_cast<int>(state.iterations()) %
                                         11,
                                  &history};
    benchmark::DoNotOptimize(policy->priority(ctx));
  }
}
BENCHMARK(BM_PolicyPriority)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_PendingQueue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(1);
  for (auto _ : state) {
    core::PendingQueue<int> q;
    for (int i = 0; i < n; ++i) q.push(rng.uniform(), i);
    long sum = 0;
    while (!q.empty()) sum += q.pop();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PendingQueue)->Arg(256)->Arg(4096);

void BM_PoolAcquireRelease(benchmark::State& state) {
  container::ContainerPool pool(32.0 * 1024.0);
  for (int f = 0; f < 11; ++f) {
    for (int k = 0; k < 10; ++k) {
      auto cid = pool.begin_creation(160.0);
      pool.finish_creation_busy(*cid, f);
      pool.release(*cid, 0.0);
    }
  }
  double t = 1.0;
  for (auto _ : state) {
    const int f = static_cast<int>(state.iterations()) % 11;
    auto cid = pool.acquire_warm(f);
    pool.release(*cid, t);
    t += 0.001;
  }
}
BENCHMARK(BM_PoolAcquireRelease);

void BM_EndToEndExperiment(benchmark::State& state) {
  const auto cat = workload::sebs_catalog();
  auto cfg = experiments::ExperimentSpec()
                 .cores(10)
                 .scenario("uniform?intensity=30")
                 .scheduler("ours/sept");
  for (auto _ : state) {
    cfg.seed(static_cast<std::uint64_t>(state.iterations()));
    auto result = experiments::run_experiment(cfg, cat);
    benchmark::DoNotOptimize(result.responses.size());
  }
}
BENCHMARK(BM_EndToEndExperiment)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
