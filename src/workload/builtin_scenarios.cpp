// The built-in workload scenarios, registered on first ScenarioRegistry
// use. The paper's three scenarios (uniform, fixed-total, fairness) are
// expressed as ArrivalProcess x FunctionMix compositions whose rng stream
// order matches the pre-registry generators draw for draw, so a given
// (spec, seed) keeps producing the byte-identical call sequence. The
// synthetic processes (poisson, bursty, diurnal) and CSV trace replay are
// new surfaces with no compatibility constraint.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/parse.h"
#include "workload/arrival_process.h"
#include "workload/function_mix.h"
#include "workload/scenario_registry.h"
#include "workload/trace_reader.h"

namespace whisk::workload {
namespace {

constexpr double kDefaultWindowS = 60.0;

// --- shared parameter plumbing ---------------------------------------------

sim::SimTime window_param(const ScenarioSpec& spec) {
  const double window = spec.number("window", kDefaultWindowS);
  WHISK_CHECK(window > 0.0, ("scenario \"" + spec.name +
                             "\": window must be positive seconds")
                                .c_str());
  return window;
}

int effective_intensity(const ScenarioSpec& spec) {
  const std::size_t raw = spec.count("intensity", kPaperIntensity);
  WHISK_CHECK(raw > 0 && raw <= static_cast<std::size_t>(
                                    std::numeric_limits<int>::max()),
              ("scenario \"" + spec.name +
               "\": intensity must be a positive (sane) integer")
                  .c_str());
  return static_cast<int>(raw);
}

// 1.1 * c * v requests for c total cores at intensity v (paper Sec. V-B).
std::size_t paper_total(const ScenarioSpec& spec, const ScenarioContext& ctx) {
  const int cores = ctx.cores * ctx.nodes;
  WHISK_CHECK(cores > 0, ("scenario \"" + spec.name +
                          "\": deployment cores must be positive")
                             .c_str());
  const int intensity = effective_intensity(spec);
  return static_cast<std::size_t>(1.1 * cores * intensity + 0.5);
}

const util::ParamDecl kWindowParam{"window", "60",
                                  "burst duration in seconds"};
const util::ParamDecl kIntensityParam{
    "intensity", std::to_string(kPaperIntensity),
    "load knob v: 1.1 * cores * v requests"};
const util::ParamDecl kMixParam{
    "mix", "round-robin", "function mix: round-robin | random | weighted"};
const util::ParamDecl kWeightsParam{
    "weights", "",
    "per-function weights for mix=weighted, '+'- or ','-separated ('+' "
    "inside a grid)"};

// The `mix` / `weights` parameter pair shared by the rate-driven scenarios.
// Weights separate with '+' (the grid-safe form, since ',' splits campaign
// axis items) or ','.
std::unique_ptr<FunctionMix> make_mix(const ScenarioSpec& spec,
                                      const FunctionCatalog& catalog) {
  const std::string mix = util::ascii_lower(spec.text("mix", "round-robin"));
  if (mix == "round-robin") {
    return std::make_unique<RoundRobinMix>(catalog.size());
  }
  if (mix == "random") {
    return std::make_unique<UniformRandomMix>(catalog.size());
  }
  if (mix == "weighted") {
    const std::string raw = spec.text("weights");
    WHISK_CHECK(!raw.empty(),
                ("scenario \"" + spec.name + "\": mix=weighted needs "
                 "weights=w0+w1+... with one weight per catalog function")
                    .c_str());
    std::vector<double> weights;
    for (const std::string_view field : util::split_any(raw, ",+")) {
      double w = 0.0;
      const bool ok = util::parse_finite_double(field, &w) && w >= 0.0;
      WHISK_CHECK(ok, ("scenario \"" + spec.name + "\": weight \"" +
                       std::string(field) + "\" is not a number >= 0")
                          .c_str());
      weights.push_back(w);
    }
    WHISK_CHECK(weights.size() == catalog.size(),
                ("scenario \"" + spec.name + "\": got " +
                 std::to_string(weights.size()) + " weights for " +
                 std::to_string(catalog.size()) + " catalog functions")
                    .c_str());
    return std::make_unique<WeightedMix>(std::move(weights));
  }
  WHISK_CHECK(false, ("scenario \"" + spec.name + "\": unknown mix \"" + mix +
                      "\"; valid mixes: round-robin, random, weighted")
                         .c_str());
  return nullptr;
}

// --- the paper's three scenarios --------------------------------------------

class UniformScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "the standard measured burst (Sec. V-B): 1.1 * cores * intensity "
           "requests, the same number of calls per function, releases "
           "uniform over the window";
  }
  std::vector<util::ParamDecl> params() const override {
    return {kIntensityParam, kWindowParam};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const std::size_t nf = ctx.catalog->size();
    const std::size_t total = paper_total(spec, ctx);
    const std::size_t per_function = total / nf;
    WHISK_CHECK(per_function * nf == total,
                "intensity/core combination does not split evenly across "
                "functions; use multiples of 10 as the paper does");
    return compose_scenario(UniformArrivals{}, EqualBlockMix{per_function},
                            total, window_param(spec), rng);
  }
};

class FixedTotalScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "an explicit request count split round-robin among the functions "
           "(the multi-node experiments' constant load, Sec. VIII)";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"total", "1320", "exact number of requests"},
            kWindowParam};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const std::size_t total = spec.count("total", 1320);
    WHISK_CHECK(total > 0, "empty burst");
    return compose_scenario(UniformArrivals{},
                            RoundRobinMix{ctx.catalog->size()}, total,
                            window_param(spec), rng);
  }
};

class FairnessScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "the fairness burst (Sec. VII-D): exactly rare-calls calls of "
           "rare-function, the rest uniform over the other functions";
  }
  std::vector<util::ParamDecl> params() const override {
    return {kIntensityParam,
            {"rare-function", "dna-visualisation",
             "catalog name of the rare long function"},
            {"rare-calls", "10", "exact calls of the rare function"},
            kWindowParam};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const std::size_t total = paper_total(spec, ctx);
    const std::size_t rare_calls = spec.count("rare-calls", 10);
    const std::string rare_name =
        spec.text("rare-function", "dna-visualisation");
    const auto rare = ctx.catalog->find(rare_name);
    WHISK_CHECK(rare.has_value(),
                ("scenario \"fairness\": unknown rare-function \"" +
                 rare_name + "\"")
                    .c_str());
    // A rare-calls beyond the request budget would underflow the remaining
    // uniform count; refuse loudly instead of clamping into a different
    // scenario than the one asked for.
    if (rare_calls > total) {
      WHISK_CHECK(false,
                  ("scenario \"fairness\": rare-calls=" +
                   std::to_string(rare_calls) + " exceeds the burst's " +
                   std::to_string(total) +
                   " requests (1.1 * cores * intensity); lower rare-calls "
                   "or raise intensity")
                      .c_str());
    }
    return compose_scenario(
        UniformArrivals{},
        RareFirstMix{*rare, rare_calls, ctx.catalog->size()}, total,
        window_param(spec), rng);
  }
};

// --- synthetic arrival processes --------------------------------------------

class PoissonScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "homogeneous Poisson arrivals at a fixed rate, crossed with a "
           "configurable function mix";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"rate", "30", "mean arrivals per second"}, kWindowParam,
            kMixParam, kWeightsParam};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const double rate = spec.number("rate", 30.0);
    const auto mix = make_mix(spec, *ctx.catalog);
    return compose_scenario(PoissonArrivals{rate}, *mix, 0,
                            window_param(spec), rng);
  }
};

class BurstyScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "two-state on-off arrivals (MMPP-2): Poisson bursts at rate-on "
           "during exponential ON phases, a rate-off trickle in between";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"rate-on", "120", "arrivals per second during ON phases"},
            {"rate-off", "5", "arrivals per second during OFF phases (may "
                              "be 0)"},
            {"mean-on", "5", "mean ON-phase duration in seconds"},
            {"mean-off", "10", "mean OFF-phase duration in seconds"},
            kWindowParam, kMixParam, kWeightsParam};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const OnOffArrivals arrivals{
        spec.number("rate-on", 120.0), spec.number("rate-off", 5.0),
        spec.number("mean-on", 5.0), spec.number("mean-off", 10.0)};
    const auto mix = make_mix(spec, *ctx.catalog);
    return compose_scenario(arrivals, *mix, 0, window_param(spec), rng);
  }
};

class DiurnalScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "inhomogeneous Poisson arrivals on a sinusoidal rate curve "
           "(an Azure-Functions-style diurnal cycle compressed into the "
           "window)";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"rate", "30", "mean arrivals per second over a full cycle"},
            {"amplitude", "0.9", "peak-to-mean swing in [0, 1]"},
            {"period", "window", "cycle length in seconds"},
            kWindowParam, kMixParam, kWeightsParam};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const sim::SimTime window = window_param(spec);
    const DiurnalArrivals arrivals{spec.number("rate", 30.0),
                                   spec.number("amplitude", 0.9),
                                   spec.number("period", window)};
    const auto mix = make_mix(spec, *ctx.catalog);
    return compose_scenario(arrivals, *mix, 0, window, rng);
  }
};

// --- CSV trace replay --------------------------------------------------------

class TraceScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "replays a CSV call trace (release_seconds[,function] per line); "
           "rows without a function name are assigned by the mix";
  }
  std::vector<util::ParamDecl> params() const override {
    return {{"file", "", "path to the trace CSV"},
            {"window", "last release", "burst duration; rows at or past it "
                                       "are dropped"},
            kMixParam, kWeightsParam};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const std::string file = spec.text("file");
    WHISK_CHECK(!file.empty(),
                "scenario \"trace\" needs file=<path> (CSV: "
                "release_seconds[,function] per line)");
    const auto entries = TraceReader::read_file(file);
    WHISK_CHECK(!entries.empty(),
                ("trace file \"" + file + "\" holds no calls").c_str());

    sim::SimTime last = 0.0;
    bool any_named = false;
    for (const auto& e : entries) {
      last = std::max(last, e.release);
      any_named = any_named || !e.function.empty();
    }
    // Derived windows sit one ULP past the last release so the final row
    // survives the strict `release < window` clip.
    const sim::SimTime window =
        spec.has("window")
            ? window_param(spec)
            : std::nextafter(std::max(last, 1e-9),
                             std::numeric_limits<double>::max());

    const auto mix = make_mix(spec, *ctx.catalog);
    if (!any_named) {
      std::vector<sim::SimTime> times;
      times.reserve(entries.size());
      for (const auto& e : entries) times.push_back(e.release);
      Scenario s = compose_scenario(TraceArrivals{std::move(times)}, *mix, 0,
                                    window, rng);
      WHISK_CHECK(!s.calls.empty(),
                  ("trace file \"" + file +
                   "\": every row fell outside the window")
                      .c_str());
      return s;
    }

    // Mixed rows: named entries are pinned to their function, unnamed ones
    // go through the mix in trace order.
    std::vector<CallRequest> calls;
    calls.reserve(entries.size());
    std::size_t unnamed = 0;
    for (const auto& e : entries) {
      if (e.function.empty()) ++unnamed;
    }
    std::size_t mix_index = 0;
    for (const auto& e : entries) {
      if (spec.has("window") && e.release >= window) continue;
      FunctionId fn = kInvalidFunction;
      if (e.function.empty()) {
        fn = mix->assign(mix_index++, unnamed, rng);
      } else {
        const auto found = ctx.catalog->find(e.function);
        WHISK_CHECK(found.has_value(),
                    ("trace file \"" + file + "\" names unknown function \"" +
                     e.function + "\"")
                        .c_str());
        fn = *found;
      }
      calls.push_back(CallRequest{-1, fn, e.release});
    }
    WHISK_CHECK(!calls.empty(),
                ("trace file \"" + file +
                 "\": every row fell outside the window")
                    .c_str());
    return finalize_scenario(std::move(calls), window);
  }
};

}  // namespace

namespace detail {

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.register_factory(
      "uniform", [] { return std::make_unique<UniformScenario>(); });
  registry.register_factory(
      "fixed-total", [] { return std::make_unique<FixedTotalScenario>(); });
  registry.register_factory(
      "fairness", [] { return std::make_unique<FairnessScenario>(); });
  registry.register_factory(
      "poisson", [] { return std::make_unique<PoissonScenario>(); });
  registry.register_factory(
      "bursty", [] { return std::make_unique<BurstyScenario>(); });
  registry.register_factory(
      "diurnal", [] { return std::make_unique<DiurnalScenario>(); });
  registry.register_factory(
      "trace", [] { return std::make_unique<TraceScenario>(); });
  registry.register_alias("uniform-burst", "uniform");
  registry.register_alias("fixed", "fixed-total");
  registry.register_alias("mmpp", "bursty");
}

}  // namespace detail
}  // namespace whisk::workload
