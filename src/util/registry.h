#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

namespace whisk::util {

// ASCII-only lowercase; registry keys must not depend on the locale.
[[nodiscard]] inline std::string ascii_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

[[nodiscard]] inline std::string join(const std::vector<std::string>& parts,
                                      std::string_view sep = ", ") {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

// String-keyed factory registry — the open extension surface behind the
// policy / balancer / invoker APIs. Names are case-insensitive and stored
// in registration order, so `names()` doubles as the canonical
// presentation order (the paper's figure order for the built-ins).
//
// Unknown names and duplicate registrations abort with a message that
// echoes the offending input and enumerates every registered name; a bare
// "unknown kind" failure buried in a sweep is hostile to debug.
template <typename Product, typename... Args>
class FactoryRegistry {
 public:
  using product_type = Product;
  using Factory = std::function<std::unique_ptr<Product>(Args...)>;

  // `kind` names what the registry holds ("policy", "balancer", ...) and
  // prefixes every diagnostic.
  explicit FactoryRegistry(std::string kind) : kind_(std::move(kind)) {}

  FactoryRegistry(const FactoryRegistry&) = delete;
  FactoryRegistry& operator=(const FactoryRegistry&) = delete;

  void register_factory(std::string_view name, Factory factory) {
    const std::string key = ascii_lower(name);
    WHISK_CHECK(!key.empty(), (kind_ + " name must not be empty").c_str());
    WHISK_CHECK(factory != nullptr,
                (kind_ + " \"" + key + "\" needs a non-null factory").c_str());
    WHISK_CHECK(find(key) == nullptr,
                (kind_ + " \"" + key + "\" is already registered; " +
                 known_names_clause())
                    .c_str());
    entries_.push_back(Entry{key, std::move(factory), /*alias_of=*/""});
  }

  // A secondary spelling for an already-registered name (e.g. the paper
  // writes FC as "fair-choice"). Aliases resolve to the canonical name and
  // are excluded from names().
  void register_alias(std::string_view alias, std::string_view target) {
    const std::string key = ascii_lower(alias);
    const std::string canon = ascii_lower(target);
    WHISK_CHECK(find(key) == nullptr,
                (kind_ + " alias \"" + key + "\" collides with a registered " +
                 kind_)
                    .c_str());
    const Entry* t = find(canon);
    WHISK_CHECK(t != nullptr && t->alias_of.empty(),
                (kind_ + " alias \"" + key + "\" targets unknown " + kind_ +
                 " \"" + canon + "\"; " + known_names_clause())
                    .c_str());
    entries_.push_back(Entry{key, t->factory, canon});
  }

  [[nodiscard]] bool contains(std::string_view name) const {
    return find(ascii_lower(name)) != nullptr;
  }

  // Canonical name for `name` (resolving aliases), or abort listing the
  // registered names when it is unknown.
  [[nodiscard]] std::string resolve(std::string_view name) const {
    const std::string key = ascii_lower(name);
    const Entry* e = find(key);
    if (e == nullptr) {
      WHISK_CHECK(false, unknown_message(name).c_str());
    }
    return e->alias_of.empty() ? e->name : e->alias_of;
  }

  [[nodiscard]] std::unique_ptr<Product> create(std::string_view name,
                                                Args... args) const {
    const Entry* e = find(ascii_lower(name));
    if (e == nullptr) {
      WHISK_CHECK(false, unknown_message(name).c_str());
    }
    auto product = e->factory(std::forward<Args>(args)...);
    WHISK_CHECK(product != nullptr,
                (kind_ + " \"" + std::string(name) +
                 "\" factory returned nullptr")
                    .c_str());
    return product;
  }

  // Canonical names in registration order (aliases excluded).
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) {
      if (e.alias_of.empty()) out.push_back(e.name);
    }
    return out;
  }

  [[nodiscard]] const std::string& kind() const { return kind_; }

 private:
  struct Entry {
    std::string name;
    Factory factory;
    std::string alias_of;  // empty for canonical entries
  };

  [[nodiscard]] const Entry* find(const std::string& key) const {
    for (const auto& e : entries_) {
      if (e.name == key) return &e;
    }
    return nullptr;
  }

  [[nodiscard]] std::string known_names_clause() const {
    return "registered " + kind_ + " names: " + join(names());
  }

  [[nodiscard]] std::string unknown_message(std::string_view name) const {
    return "unknown " + kind_ + " \"" + std::string(name) + "\"; " +
           known_names_clause();
  }

  std::string kind_;
  std::vector<Entry> entries_;
};

}  // namespace whisk::util
