#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/parse.h"
#include "util/registry.h"

namespace whisk::util {

// One declared parameter of a registered component (or of the flat
// resilience knob set); surfaced by the unknown-key diagnostics and by
// `whisk_sweep --list`.
struct ParamDecl {
  std::string name;
  // Display form, e.g. "60" or "round-robin"; the component resolves the
  // actual fallback itself. Empty when there is none.
  std::string default_value;
  std::string help;
};

// --- the parameter-map half --------------------------------------------------
//
// Parameters map lowercase keys to verbatim values; the map is sorted, so
// rendering it is canonical. Diagnostics name a subject: `kind "name"` (e.g.
// scenario "poisson"), or the bare `kind` when `name` is empty (e.g.
// resilience). Messages are only built on failure.
using ParamMap = std::map<std::string, std::string>;

[[nodiscard]] bool has_param(const ParamMap& params, std::string_view key);

// Typed access with a fallback for absent keys. Unparsable values abort,
// naming the subject, the key and the offending value.
[[nodiscard]] double param_number(const ParamMap& params, std::string_view key,
                                  double fallback, std::string_view kind,
                                  std::string_view name);
[[nodiscard]] std::size_t param_count(const ParamMap& params,
                                      std::string_view key,
                                      std::size_t fallback,
                                      std::string_view kind,
                                      std::string_view name);
[[nodiscard]] std::string param_text(const ParamMap& params,
                                     std::string_view key,
                                     std::string_view fallback);

// Lowercase the keys of `params`, aborting on a key set twice (case-variant
// duplicates on a hand-built map) or on a key `declared` does not list; the
// unknown-key error lists every declared key.
[[nodiscard]] ParamMap fold_params(const ParamMap& params,
                                   const std::vector<ParamDecl>& declared,
                                   std::string_view kind,
                                   std::string_view name);

// --- the component spec ------------------------------------------------------

// A registered component by registry name plus named parameters — the one
// spec type behind workload::ScenarioSpec, container::KeepAliveSpec,
// cluster::AutoscalerSpec, cluster::FaultSpec and workload::WorkflowSpec:
//
//   auto spec = FaultSpec::parse("Crash-Restart?MTTR-S=15&mtbf-s=120");
//   spec.to_string()  -> "crash-restart?mtbf-s=120&mttr-s=15"
//
// Grammar: name[?key=value[&key=value]...]. The name is trimmed; name and
// keys are case-insensitive; values are kept verbatim (they may be file
// paths). to_string() is canonical and parse(to_string()) round-trips.
// normalized() resolves the name against the kind's registry (aliases,
// case), rejects unknown keys with an error that lists the component's
// declared keys, and validates the values the way the kind does.
//
// Traits supplies what differs per kind:
//
//   static constexpr std::string_view kDefaultName;  // default-constructed
//   static constexpr bool kNoneReserved;  // "none" = off, takes no params
//   static constexpr std::string_view kExample;  // for the empty-spec error
//   static Registry& registry();  // a util::FactoryRegistry; kind() is the
//                                 // noun every diagnostic uses
//   static void validate(const ComponentSpec& spec);  // values of a folded
//                                                     // spec; abort if bad
//   static const std::vector<ParamDecl>& common_params();  // optional: keys
//                                 // every component of the kind accepts
//
// Declared keys come from a probe: the registry's factory run with an empty
// parameter set (so every parameter must have a usable default).
template <typename Traits>
struct ComponentSpec {
  std::string name = std::string(Traits::kDefaultName);
  ParamMap params;

  // A probe instance and its declared keys (common_params() first).
  struct Probe;

  [[nodiscard]] static ComponentSpec parse(std::string_view text);
  [[nodiscard]] std::string to_string() const {
    return render_params(name, params);
  }

  // Abort with a name-listing error if the component or any parameter key is
  // unknown, or a value is invalid; returns a copy with the name
  // canonicalized and keys lowercased. "none", where reserved, must carry
  // no parameters.
  [[nodiscard]] ComponentSpec normalized() const;
  // normalized() without the value validation — for callers that construct
  // the component right away, which validates the values anyway.
  [[nodiscard]] ComponentSpec folded() const;

  // False for the reserved name "none".
  [[nodiscard]] bool enabled() const { return name != "none"; }

  [[nodiscard]] bool has(std::string_view key) const {
    return has_param(params, key);
  }
  [[nodiscard]] double number(std::string_view key, double fallback) const {
    return param_number(params, key, fallback, Traits::registry().kind(),
                        name);
  }
  [[nodiscard]] std::size_t count(std::string_view key,
                                  std::size_t fallback) const {
    return param_count(params, key, fallback, Traits::registry().kind(),
                       name);
  }
  [[nodiscard]] std::string text(std::string_view key,
                                 std::string_view fallback = {}) const {
    return param_text(params, key, fallback);
  }

  [[nodiscard]] static auto& registry() { return Traits::registry(); }

  // The probe for canonical name `canon`, built on first use and cached:
  // registrations are append-only, so an entry never goes stale.
  // Mutex-guarded, since campaign workers normalize specs concurrently;
  // map nodes are stable, so the reference outlives the lock.
  [[nodiscard]] static const Probe& probe(const std::string& canon);

  friend bool operator==(const ComponentSpec&,
                         const ComponentSpec&) = default;
};

template <typename Traits>
struct ComponentSpec<Traits>::Probe {
  using Registry = std::remove_reference_t<decltype(Traits::registry())>;

  std::unique_ptr<typename Registry::product_type> component;
  std::vector<ParamDecl> params;
};

template <typename Traits>
ComponentSpec<Traits> ComponentSpec<Traits>::parse(std::string_view text) {
  const std::string& kind = Traits::registry().kind();
  WHISK_CHECK(!trim_ws(text).empty(),
              ("empty " + kind +
               " spec; expected \"name[?key=value[&...]]\" like " +
               std::string(Traits::kExample) +
               (Traits::kNoneReserved ? " (or \"none\")" : ""))
                  .c_str());
  ComponentSpec spec;
  const std::size_t q = text.find('?');
  spec.name = std::string(trim_ws(text.substr(0, q)));
  WHISK_CHECK(!spec.name.empty(),
              (kind + " spec \"" + std::string(text) +
               "\" has an empty name before the '?'")
                  .c_str());
  if (q != std::string_view::npos) {
    parse_param_list(text.substr(q + 1),
                     kind + " spec \"" + std::string(text) + "\"",
                     &spec.params);
  }
  return spec.normalized();
}

template <typename Traits>
ComponentSpec<Traits> ComponentSpec<Traits>::folded() const {
  auto& registry = Traits::registry();
  const std::string_view trimmed = trim_ws(name);
  ComponentSpec out;
  if (Traits::kNoneReserved && ascii_lower(trimmed) == "none") {
    WHISK_CHECK(params.empty(),
                (registry.kind() +
                 " \"none\" takes no parameters; name one of " +
                 join(registry.names()) + " to configure one")
                    .c_str());
    out.name = "none";
    return out;
  }
  out.name = registry.resolve(trimmed);
  out.params =
      fold_params(params, probe(out.name).params, registry.kind(), out.name);
  return out;
}

template <typename Traits>
ComponentSpec<Traits> ComponentSpec<Traits>::normalized() const {
  ComponentSpec out = folded();
  if (out.enabled()) Traits::validate(out);
  return out;
}

template <typename Traits>
auto ComponentSpec<Traits>::probe(const std::string& canon) -> const Probe& {
  static auto* mutex = new std::mutex();
  static auto* cache = new std::map<std::string, Probe>();
  std::lock_guard<std::mutex> lock(*mutex);
  auto it = cache->find(canon);
  if (it == cache->end()) {
    auto& registry = Traits::registry();
    Probe probe;
    if constexpr (requires { registry.create(canon); }) {
      probe.component = registry.create(canon);
    } else {
      probe.component = registry.create(canon, ComponentSpec{canon, {}});
    }
    if constexpr (requires { Traits::common_params(); }) {
      probe.params = Traits::common_params();
    }
    for (auto& p : probe.component->params()) {
      probe.params.push_back(std::move(p));
    }
    it = cache->emplace(canon, std::move(probe)).first;
  }
  return it->second;
}

}  // namespace whisk::util
