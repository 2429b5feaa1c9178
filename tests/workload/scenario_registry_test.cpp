// The ScenarioRegistry surface: registry mechanics, determinism of every
// registered scenario, runtime registration, trace replay, and — the
// load-bearing guarantee of the redesign — byte-identical call sequences
// between the registered paper scenarios and the pre-registry seed
// generators (retained below as reference implementations) for seeds 0..4.
#include "workload/scenario_registry.h"

#include <gtest/gtest.h>

#include "workload/arrival_process.h"
#include "workload/function_mix.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace whisk::workload {
namespace {

// --- the pre-redesign generators, verbatim (modulo the class wrapper) ------
namespace reference {

Scenario finalize(std::vector<CallRequest> calls, sim::SimTime window) {
  std::sort(calls.begin(), calls.end(),
            [](const CallRequest& a, const CallRequest& b) {
              if (a.release != b.release) return a.release < b.release;
              return a.function < b.function;
            });
  for (std::size_t i = 0; i < calls.size(); ++i) {
    calls[i].id = static_cast<CallId>(i);
  }
  Scenario s;
  s.calls = std::move(calls);
  s.window = window;
  return s;
}

Scenario uniform_burst(const FunctionCatalog& catalog, int cores,
                       int intensity, sim::Rng& rng,
                       sim::SimTime window = 60.0) {
  const std::size_t nf = catalog.size();
  const std::size_t total =
      static_cast<std::size_t>(1.1 * cores * intensity + 0.5);
  const std::size_t per_function = total / nf;
  std::vector<CallRequest> calls;
  calls.reserve(total);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::size_t k = 0; k < per_function; ++k) {
      calls.push_back(CallRequest{-1, static_cast<FunctionId>(f),
                                  rng.uniform(0.0, window)});
    }
  }
  return finalize(std::move(calls), window);
}

Scenario fixed_total_burst(const FunctionCatalog& catalog,
                           std::size_t total_requests, sim::Rng& rng,
                           sim::SimTime window = 60.0) {
  const std::size_t nf = catalog.size();
  std::vector<CallRequest> calls;
  calls.reserve(total_requests);
  for (std::size_t i = 0; i < total_requests; ++i) {
    calls.push_back(CallRequest{-1, static_cast<FunctionId>(i % nf),
                                rng.uniform(0.0, window)});
  }
  return finalize(std::move(calls), window);
}

Scenario fairness_burst(const FunctionCatalog& catalog, int cores,
                        int intensity, FunctionId rare_function,
                        std::size_t rare_calls, sim::Rng& rng,
                        sim::SimTime window = 60.0) {
  const std::size_t total =
      static_cast<std::size_t>(1.1 * cores * intensity + 0.5);
  std::vector<CallRequest> calls;
  calls.reserve(total);
  for (std::size_t k = 0; k < rare_calls; ++k) {
    calls.push_back(
        CallRequest{-1, rare_function, rng.uniform(0.0, window)});
  }
  const std::size_t nf = catalog.size();
  for (std::size_t k = rare_calls; k < total; ++k) {
    FunctionId f;
    do {
      f = static_cast<FunctionId>(rng.uniform_index(nf));
    } while (f == rare_function);
    calls.push_back(CallRequest{-1, f, rng.uniform(0.0, window)});
  }
  return finalize(std::move(calls), window);
}

}  // namespace reference

void expect_identical(const Scenario& a, const Scenario& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(a.window, b.window) << label;
  for (std::size_t i = 0; i < a.calls.size(); ++i) {
    ASSERT_EQ(a.calls[i].id, b.calls[i].id) << label << " call " << i;
    ASSERT_EQ(a.calls[i].function, b.calls[i].function)
        << label << " call " << i;
    // Byte-identical means the exact same double, not approximately.
    ASSERT_EQ(a.calls[i].release, b.calls[i].release)
        << label << " call " << i;
  }
}

class ScenarioRegistryTest : public ::testing::Test {
 protected:
  Scenario make(const std::string& spec, std::uint64_t seed) {
    ScenarioContext ctx;
    ctx.catalog = &cat_;
    sim::Rng rng(seed);
    return make_scenario(spec, ctx, rng);
  }

  FunctionCatalog cat_ = sebs_catalog();
};

TEST_F(ScenarioRegistryTest, BuiltinsAreRegisteredInPresentationOrder) {
  const auto names = ScenarioRegistry::instance().names();
  const std::vector<std::string> expected = {
      "uniform", "fixed-total", "fairness", "poisson",
      "bursty",  "diurnal",     "trace"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(ScenarioRegistry::instance().resolve("MMPP"), "bursty");
  EXPECT_EQ(ScenarioRegistry::instance().resolve("fixed"), "fixed-total");
}

TEST_F(ScenarioRegistryTest, EveryDefDeclaresHelpAndParams) {
  auto& registry = ScenarioRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto def = registry.create(name);
    EXPECT_FALSE(def->help().empty()) << name;
    for (const auto& param : def->params()) {
      EXPECT_FALSE(param.name.empty()) << name;
      EXPECT_FALSE(param.help.empty()) << name << "/" << param.name;
    }
  }
}

// The acceptance guarantee: the three paper scenarios, expressed as
// registered specs, reproduce the pre-redesign call sequences exactly for
// seeds 0..4.
TEST_F(ScenarioRegistryTest, UniformMatchesSeedGeneratorForSeeds0To4) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    sim::Rng rng(seed);
    const auto expected = reference::uniform_burst(cat_, 10, 30, rng);
    expect_identical(make("uniform?intensity=30", seed), expected,
                     "uniform seed " + std::to_string(seed));
  }
}

TEST_F(ScenarioRegistryTest, FixedTotalMatchesSeedGeneratorForSeeds0To4) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    sim::Rng rng(seed);
    const auto expected = reference::fixed_total_burst(cat_, 2376, rng);
    expect_identical(make("fixed-total?total=2376", seed), expected,
                     "fixed-total seed " + std::to_string(seed));
  }
}

TEST_F(ScenarioRegistryTest, FairnessMatchesSeedGeneratorForSeeds0To4) {
  const auto dna = *cat_.find("dna-visualisation");
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    sim::Rng rng(seed);
    const auto expected =
        reference::fairness_burst(cat_, 10, 90, dna, 10, rng);
    expect_identical(
        make("fairness?intensity=90&rare-calls=10", seed), expected,
        "fairness seed " + std::to_string(seed));
  }
}

// Determinism over the whole open surface: every registered scenario, same
// (spec, seed) => identical call sequence.
TEST_F(ScenarioRegistryTest, EveryRegisteredScenarioIsDeterministic) {
  const std::string trace_path =
      ::testing::TempDir() + "whisk_registry_determinism.csv";
  {
    std::ofstream out(trace_path);
    out << "0.5\n1.0, graph-bfs\n2.5\n40.0\n";
  }
  // A runnable spec per registered scenario; a new registration must either
  // run with defaults or be added here.
  const std::map<std::string, std::string> spec_for = {
      {"uniform", "uniform"},
      {"fixed-total", "fixed-total"},
      {"fairness", "fairness"},
      {"poisson", "poisson"},
      {"bursty", "bursty"},
      {"diurnal", "diurnal"},
      {"trace", "trace?file=" + trace_path},
  };
  for (const auto& name : ScenarioRegistry::instance().names()) {
    ASSERT_EQ(spec_for.count(name), 1u)
        << "scenario \"" << name << "\" has no determinism spec; add one";
    const std::string& spec = spec_for.at(name);
    expect_identical(make(spec, 7), make(spec, 7), name);
    EXPECT_GT(make(spec, 7).size(), 0u) << name;
  }
}

TEST_F(ScenarioRegistryTest, TraceReplayPinsNamedRowsAndMixesTheRest) {
  const std::string path = ::testing::TempDir() + "whisk_trace_scenario.csv";
  {
    std::ofstream out(path);
    out << "# mixed trace\n0.5\n1.0, graph-bfs\n2.0\n3.5, graph-bfs\n";
  }
  const auto s = make("trace?file=" + path, 1);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.window, 3.5);  // derived from the last release
  const auto bfs = *cat_.find("graph-bfs");
  EXPECT_EQ(s.calls[1].function, bfs);
  EXPECT_EQ(s.calls[3].function, bfs);
  // Unnamed rows went through the default round-robin mix.
  EXPECT_EQ(s.calls[0].function, static_cast<FunctionId>(0));
  EXPECT_EQ(s.calls[2].function, static_cast<FunctionId>(1));
  // An explicit window clips the tail.
  const auto clipped = make("trace?file=" + path + "&window=1.5", 1);
  EXPECT_EQ(clipped.size(), 2u);
  EXPECT_DOUBLE_EQ(clipped.window, 1.5);
}

TEST_F(ScenarioRegistryTest, TraceDiesWhenTheWindowClipsEveryRow) {
  const std::string path = ::testing::TempDir() + "whisk_trace_clipped.csv";
  {
    std::ofstream out(path);
    out << "5.0\n6.0\n";
  }
  EXPECT_DEATH((void)make("trace?file=" + path + "&window=2", 1),
               "every row fell outside the window");
}

TEST_F(ScenarioRegistryTest, RuntimeRegistrationExtendsTheSurface) {
  // The whole point of the registry: a new scenario slots in without
  // touching workload/, experiments/, or the runner.
  class EveryHalfSecond final : public ScenarioDef {
   public:
    std::string help() const override { return "test-only: fixed cadence"; }
    std::vector<util::ParamDecl> params() const override {
      return {{"period", "0.5", "gap between calls in seconds"}};
    }
    Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                      sim::Rng& rng) const override {
      const double period = spec.number("period", 0.5);
      std::vector<sim::SimTime> times;
      for (double t = 0.0; t < 10.0; t += period) times.push_back(t);
      RoundRobinMix mix(ctx.catalog->size());
      return compose_scenario(TraceArrivals{std::move(times)}, mix, 0, 10.0,
                              rng);
    }
  };
  auto& registry = ScenarioRegistry::instance();
  if (!registry.contains("test-cadence")) {
    registry.register_factory(
        "test-cadence", [] { return std::make_unique<EveryHalfSecond>(); });
  }
  const auto s = make("test-cadence?period=1", 1);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_DOUBLE_EQ(s.calls[3].release, 3.0);
}

TEST_F(ScenarioRegistryTest, ContextlessCatalogDies) {
  ScenarioContext ctx;  // catalog left null
  sim::Rng rng(1);
  EXPECT_DEATH((void)make_scenario("uniform", ctx, rng),
               "must point at a FunctionCatalog");
}

// Scenario values are range-checked when the scenario is generated.
TEST_F(ScenarioRegistryTest, OutOfRangeValuesQuoteTheInput) {
  EXPECT_DEATH((void)make("uniform?window=-1e-7", 1),
               "scenario \"uniform\": window must be > 0, got \"-1e-7\"");
  EXPECT_DEATH((void)make("diurnal?period=0", 1),
               "scenario \"diurnal\": period must be > 0, got \"0\"");
}

}  // namespace
}  // namespace whisk::workload
