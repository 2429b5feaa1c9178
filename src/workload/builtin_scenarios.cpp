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

// --- shared parameter plumbing ---------------------------------------------

// 1.1 * c * v requests for c total cores at intensity v (paper Sec. V-B).
std::size_t paper_total(const ScenarioSpec& spec, const ScenarioContext& ctx) {
  const int cores = ctx.cores * ctx.nodes;
  WHISK_CHECK(cores > 0, ("scenario \"" + spec.name +
                          "\": deployment cores must be positive")
                             .c_str());
  const auto intensity = static_cast<int>(spec.count("intensity"));
  return static_cast<std::size_t>(1.1 * cores * intensity + 0.5);
}

using util::count_param;
using util::number_param;
using util::text_param;

util::ParamDecl window_param() {
  return number_param("window", 60, "> 0", "burst duration in seconds");
}
util::ParamDecl intensity_param() {
  return count_param("intensity", kPaperIntensity, "[1, 2147483647]",
                     "load knob v: 1.1 * cores * v requests");
}
util::ParamDecl mix_param() {
  return text_param("mix", "round-robin",
                    "function mix: round-robin | random | weighted");
}
util::ParamDecl weights_param() {
  return text_param("weights", "",
                    "per-function weights for mix=weighted, '+'- or "
                    "','-separated ('+' inside a grid)");
}

// The `mix` / `weights` parameter pair shared by the rate-driven scenarios.
// Weights separate with '+' (the grid-safe form, since ',' splits campaign
// axis items) or ','.
std::unique_ptr<FunctionMix> make_mix(const ScenarioSpec& spec,
                                      const FunctionCatalog& catalog) {
  const std::string mix = util::ascii_lower(spec.text("mix"));
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
    return {intensity_param(), window_param()};
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
                            total, spec.number("window"), rng);
  }
};

class FixedTotalScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "an explicit request count split round-robin among the functions "
           "(the multi-node experiments' constant load, Sec. VIII)";
  }
  std::vector<util::ParamDecl> params() const override {
    return {count_param("total", 1320, ">= 1", "exact number of requests"),
            window_param()};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    return compose_scenario(UniformArrivals{},
                            RoundRobinMix{ctx.catalog->size()},
                            spec.count("total"), spec.number("window"), rng);
  }
};

class FairnessScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "the fairness burst (Sec. VII-D): exactly rare-calls calls of "
           "rare-function, the rest uniform over the other functions";
  }
  std::vector<util::ParamDecl> params() const override {
    return {intensity_param(),
            text_param("rare-function", "dna-visualisation",
                       "catalog name of the rare long function"),
            count_param("rare-calls", 10, "",
                        "exact calls of the rare function"),
            window_param()};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const std::size_t total = paper_total(spec, ctx);
    const std::size_t rare_calls = spec.count("rare-calls");
    const std::string rare_name = spec.text("rare-function");
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
        spec.number("window"), rng);
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
    return {number_param("rate", 30, "> 0", "mean arrivals per second"),
            window_param(), mix_param(), weights_param()};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const auto mix = make_mix(spec, *ctx.catalog);
    return compose_scenario(PoissonArrivals{spec.number("rate")}, *mix, 0,
                            spec.number("window"), rng);
  }
};

class BurstyScenario final : public ScenarioDef {
 public:
  std::string help() const override {
    return "two-state on-off arrivals (MMPP-2): Poisson bursts at rate-on "
           "during exponential ON phases, a rate-off trickle in between";
  }
  std::vector<util::ParamDecl> params() const override {
    return {number_param("rate-on", 120, "> 0",
                         "arrivals per second during ON phases"),
            number_param("rate-off", 5, ">= 0",
                         "arrivals per second during OFF phases (may be 0)"),
            number_param("mean-on", 5, "> 0",
                         "mean ON-phase duration in seconds"),
            number_param("mean-off", 10, "> 0",
                         "mean OFF-phase duration in seconds"),
            window_param(), mix_param(), weights_param()};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const OnOffArrivals arrivals{
        spec.number("rate-on"), spec.number("rate-off"),
        spec.number("mean-on"), spec.number("mean-off")};
    const auto mix = make_mix(spec, *ctx.catalog);
    return compose_scenario(arrivals, *mix, 0, spec.number("window"), rng);
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
    return {number_param("rate", 30, "> 0",
                         "mean arrivals per second over a full cycle"),
            number_param("amplitude", 0.9, "[0, 1]",
                         "peak-to-mean swing in [0, 1]"),
            util::derived_param(util::ParamDecl::Type::kNumber, "period",
                                "window", "> 0", "cycle length in seconds"),
            window_param(), mix_param(), weights_param()};
  }
  Scenario generate(const ScenarioSpec& spec, const ScenarioContext& ctx,
                    sim::Rng& rng) const override {
    const sim::SimTime window = spec.number("window");
    const DiurnalArrivals arrivals{spec.number("rate"),
                                   spec.number("amplitude"),
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
    return {text_param("file", "", "path to the trace CSV"),
            util::derived_param(util::ParamDecl::Type::kNumber, "window",
                                "last release", "> 0",
                                "burst duration; rows at or past it are "
                                "dropped"),
            mix_param(), weights_param()};
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
    const sim::SimTime window = spec.number(
        "window", std::nextafter(std::max(last, 1e-9),
                                 std::numeric_limits<double>::max()));

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

ScenarioRegistry::ScenarioRegistry() : ComponentRegistry("scenario") {
  add<UniformScenario>("uniform");
  add<FixedTotalScenario>("fixed-total");
  add<FairnessScenario>("fairness");
  add<PoissonScenario>("poisson");
  add<BurstyScenario>("bursty");
  add<DiurnalScenario>("diurnal");
  add<TraceScenario>("trace");
  register_alias("uniform-burst", "uniform");
  register_alias("fixed", "fixed-total");
  register_alias("mmpp", "bursty");
}
}  // namespace whisk::workload
