#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/parse.h"
#include "util/registry.h"

namespace whisk::util {

// One declared parameter of a component, a node group or the resilience
// knobs: the one place its name, type, default, range and help are
// written. Values are read and range-checked through it; `whisk_sweep
// --list` and the unknown-key diagnostics show it. Build one with
// number_param / count_param / text_param, or derived_param for a default
// the reader computes at run time.
struct ParamDecl {
  enum class Type { kText, kNumber, kCount };

  std::string name;
  // Display form of the default: the typed default through fmt_g, the text
  // default, or a derived default's note; empty when there is none.
  std::string default_value;
  std::string help;
  Type type = Type::kText;
  // The typed default; absent when derived (the reader passes a fallback).
  std::optional<double> fallback = std::nullopt;
  // Allowed values: "" (any), "> 0", ">= 1", "<= 1000000", "[0, 1)" or
  // "(0, 1]"; diagnostics quote it.
  std::string range = {};
};

[[nodiscard]] ParamDecl number_param(std::string name, double fallback,
                                     std::string range, std::string help);
[[nodiscard]] ParamDecl count_param(std::string name, std::size_t fallback,
                                    std::string range, std::string help);
[[nodiscard]] ParamDecl text_param(std::string name, std::string fallback,
                                   std::string help);
// A number or count whose default depends on the run (a period that
// defaults to the window); `note` is shown as its default.
[[nodiscard]] ParamDecl derived_param(ParamDecl::Type type, std::string name,
                                      std::string note, std::string range,
                                      std::string help);

// Whether `value` lies in a ParamDecl range; a malformed range aborts.
[[nodiscard]] bool in_range(double value, std::string_view range);

// --- the parameter-map half --------------------------------------------------
//
// Parameters map lowercase keys to verbatim values; the map is sorted, so
// rendering it is canonical. Diagnostics name a subject: `kind "name"` (e.g.
// scenario "poisson"), or the bare `kind` when `name` is empty (e.g.
// resilience). Messages are only built on failure.
using ParamMap = std::map<std::string, std::string>;

[[nodiscard]] bool has_param(const ParamMap& params, std::string_view key);

// Lowercase the keys of `params`, aborting on a key set twice (case-variant
// duplicates on a hand-built map) or on a key `declared` does not list; the
// unknown-key error lists every declared key.
[[nodiscard]] ParamMap fold_params(const ParamMap& params,
                                   const std::vector<ParamDecl>& declared,
                                   std::string_view kind,
                                   std::string_view name);

// Typed reads of a folded parameter map against its declarations: an unset
// key yields `fallback`, or without one its declared default (the key must
// then be declared, its default not derived). Unparsable values abort,
// naming the subject, the key and the offending value.
struct ParamReader {
  const ParamMap& params;
  const std::vector<ParamDecl>& declared;
  std::string_view kind;
  std::string_view name;

  [[nodiscard]] double number(std::string_view key,
                              std::optional<double> fallback = {}) const;
  [[nodiscard]] std::size_t count(
      std::string_view key, std::optional<std::size_t> fallback = {}) const;
  [[nodiscard]] std::string text(
      std::string_view key,
      std::optional<std::string_view> fallback = {}) const;

  // The declaration of `key` for a read without a fallback, typed (number
  // or count) or text; aborts on an undeclared key, a declaration of the
  // other type or a derived default (each a programming error).
  [[nodiscard]] const ParamDecl& decl(std::string_view key, bool typed) const;
  // Abort unless every value parses as its declared type and lies in its
  // declared range; the message quotes the input text:
  //   fault "crash-restart": mtbf-s must be > 0, got "-1e-7"
  void check() const;
};

// A FactoryRegistry whose entries carry their declared parameters, so they
// are known without constructing a component (whose constructor reads
// them). A component declares its table in a static params(), next to the
// constructor that reads it, and registers by type:
//
//   registry.add<TtlKeepAlive>("ttl");  // TtlKeepAlive::params() declares
//
// A stateless def (a factory taking no arguments) declares through its
// virtual params() instead. `common` parameters lead every table.
template <typename Product, typename... Args>
class ComponentRegistry : public FactoryRegistry<Product, Args...> {
 public:
  using Declare = std::vector<ParamDecl> (*)();

  explicit ComponentRegistry(std::string kind, Declare common = nullptr)
      : FactoryRegistry<Product, Args...>(std::move(kind)), common_(common) {}

  // Register T, constructed from the factory's arguments.
  template <typename T>
  void add(std::string_view name) {
    this->register_factory(name, [](Args... args) {
      return std::make_unique<T>(std::forward<Args>(args)...);
    });
    if constexpr (requires { T::params(); }) {
      declare_[ascii_lower(name)] = &T::params;
    }
  }

  // The declared parameters of `name`, an alias or any case of a registered
  // name (none if it is not registered), built on first use and cached by
  // canonical name under a mutex, since campaign workers normalize specs
  // concurrently; map nodes are stable, so the reference outlives the lock.
  [[nodiscard]] const std::vector<ParamDecl>& params(
      std::string_view name) const {
    static const std::vector<ParamDecl> kNone;
    if (!this->contains(name)) return kNone;
    const std::string canon = this->resolve(name);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = tables_.try_emplace(canon);
    if (fresh) {
      if (common_ != nullptr) it->second = common_();
      std::vector<ParamDecl> own;
      if constexpr (sizeof...(Args) == 0) own = this->create(canon)->params();
      if (const auto d = declare_.find(canon); d != declare_.end()) {
        own = d->second();
      }
      it->second.insert(it->second.end(), own.begin(), own.end());
    }
    return it->second;
  }

 private:
  Declare common_;
  std::map<std::string, Declare> declare_;
  mutable std::mutex mutex_;
  mutable std::map<std::string, std::vector<ParamDecl>> tables_;
};

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
// declared keys, range-checks every set value against its declaration and
// runs the kind's own validation.
//
// Traits supplies what differs per kind:
//
//   static constexpr std::string_view kDefaultName;  // default-constructed
//   static constexpr bool kNoneReserved;  // "none" = off, takes no params
//   static constexpr std::string_view kExample;  // for the empty-spec error
//   using Registry = ...;  // a util::ComponentRegistry with a static
//                          // instance(); kind() is the noun every
//                          // diagnostic uses
//   static void validate(const ComponentSpec& spec);  // optional: the rules
//                                 // spanning parameters; abort if broken
//   static constexpr bool kChecksValuesLate;  // optional: true when values
//                                 // are range-checked on use, not on parse
template <typename Traits>
struct ComponentSpec {
  std::string name = std::string(Traits::kDefaultName);
  ParamMap params;

  // A probe instance and its declared keys.
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
  // normalized() without the value checks: the name resolved, keys folded.
  [[nodiscard]] ComponentSpec folded() const;
  // Abort unless every value of this folded spec parses as its declared
  // type and lies in its declared range.
  void check_values() const { reader().check(); }

  // False for the reserved name "none".
  [[nodiscard]] bool enabled() const { return name != "none"; }

  [[nodiscard]] bool has(std::string_view key) const {
    return has_param(params, key);
  }
  // Typed reads (see ParamReader) of a folded spec.
  [[nodiscard]] ParamReader reader() const {
    return {params, declared(name), registry().kind(), name};
  }
  [[nodiscard]] double number(std::string_view key,
                              std::optional<double> fallback = {}) const {
    return reader().number(key, fallback);
  }
  [[nodiscard]] std::size_t count(
      std::string_view key, std::optional<std::size_t> fallback = {}) const {
    return reader().count(key, fallback);
  }
  [[nodiscard]] std::string text(
      std::string_view key,
      std::optional<std::string_view> fallback = {}) const {
    return reader().text(key, fallback);
  }

  [[nodiscard]] static auto& registry() {
    return Traits::Registry::instance();
  }

  // The declared parameters of canonical name `canon`, as registered.
  [[nodiscard]] static const std::vector<ParamDecl>& declared(
      const std::string& canon) {
    return registry().params(canon);
  }

  // The probe for canonical name `canon` (a component built with no
  // parameters, for its help and traits), built on first use and cached:
  // registrations are append-only, so an entry never goes stale.
  // Mutex-guarded, since campaign workers normalize specs concurrently;
  // map nodes are stable, so the reference outlives the lock.
  [[nodiscard]] static const Probe& probe(const std::string& canon);

  friend bool operator==(const ComponentSpec&,
                         const ComponentSpec&) = default;
};

template <typename Traits>
struct ComponentSpec<Traits>::Probe {
  std::unique_ptr<typename Traits::Registry::product_type> component;
  const std::vector<ParamDecl>& params;
};

template <typename Traits>
ComponentSpec<Traits> ComponentSpec<Traits>::parse(std::string_view text) {
  const std::string& kind = registry().kind();
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
  auto& reg = registry();
  const std::string_view trimmed = trim_ws(name);
  ComponentSpec out;
  if (Traits::kNoneReserved && ascii_lower(trimmed) == "none") {
    WHISK_CHECK(params.empty(),
                (reg.kind() + " \"none\" takes no parameters; name one of " +
                 join(reg.names()) + " to configure one")
                    .c_str());
    out.name = "none";
    return out;
  }
  out.name = reg.resolve(trimmed);
  out.params = fold_params(params, declared(out.name), reg.kind(), out.name);
  return out;
}

template <typename Traits>
ComponentSpec<Traits> ComponentSpec<Traits>::normalized() const {
  ComponentSpec out = folded();
  if (!out.enabled()) return out;
  if constexpr (!requires { requires Traits::kChecksValuesLate; }) {
    out.check_values();
  }
  if constexpr (requires { Traits::validate(out); }) Traits::validate(out);
  return out;
}

template <typename Traits>
auto ComponentSpec<Traits>::probe(const std::string& canon) -> const Probe& {
  static auto* mutex = new std::mutex();
  static auto* cache = new std::map<std::string, Probe>();
  std::lock_guard<std::mutex> lock(*mutex);
  auto it = cache->find(canon);
  if (it == cache->end()) {
    Probe probe{nullptr, declared(canon)};
    if constexpr (requires { registry().create(canon); }) {
      probe.component = registry().create(canon);
    } else {
      probe.component = registry().create(canon, ComponentSpec{canon, {}});
    }
    it = cache->emplace(canon, std::move(probe)).first;
  }
  return it->second;
}

}  // namespace whisk::util
