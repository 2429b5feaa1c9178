#include "util/component_spec.h"

namespace whisk::util {
namespace {

std::string subject(std::string_view kind, std::string_view name) {
  std::string out(kind);
  if (!name.empty()) out += " \"" + std::string(name) + "\"";
  return out;
}

}  // namespace

bool has_param(const ParamMap& params, std::string_view key) {
  return params.count(ascii_lower(key)) != 0;
}

double param_number(const ParamMap& params, std::string_view key,
                    double fallback, std::string_view kind,
                    std::string_view name) {
  const auto it = params.find(ascii_lower(key));
  if (it == params.end()) return fallback;
  double value = 0.0;
  if (!parse_finite_double(it->second, &value)) {
    WHISK_CHECK(false, (subject(kind, name) + " parameter " +
                        std::string(key) + "=\"" + it->second +
                        "\" is not a finite number")
                           .c_str());
  }
  return value;
}

std::size_t param_count(const ParamMap& params, std::string_view key,
                        std::size_t fallback, std::string_view kind,
                        std::string_view name) {
  const auto it = params.find(ascii_lower(key));
  if (it == params.end()) return fallback;
  unsigned long long value = 0;
  if (!parse_whole_number(it->second, &value)) {
    WHISK_CHECK(false, (subject(kind, name) + " parameter " +
                        std::string(key) + "=\"" + it->second +
                        "\" is not a whole number >= 0")
                           .c_str());
  }
  return static_cast<std::size_t>(value);
}

std::string param_text(const ParamMap& params, std::string_view key,
                       std::string_view fallback) {
  const auto it = params.find(ascii_lower(key));
  return it == params.end() ? std::string(fallback) : it->second;
}

ParamMap fold_params(const ParamMap& params,
                     const std::vector<ParamDecl>& declared,
                     std::string_view kind, std::string_view name) {
  ParamMap out;
  for (const auto& [raw_key, value] : params) {
    const std::string key = ascii_lower(raw_key);
    WHISK_CHECK(out.count(key) == 0, (subject(kind, name) +
                                      " sets parameter \"" + key +
                                      "\" twice")
                                         .c_str());
    bool known = false;
    for (const auto& p : declared) known = known || p.name == key;
    if (!known) {
      std::vector<std::string> names;
      names.reserve(declared.size());
      for (const auto& p : declared) names.push_back(p.name);
      WHISK_CHECK(false, (subject(kind, name) +
                          " does not take parameter \"" + raw_key +
                          "\"; valid parameters: " +
                          (names.empty() ? "(none)" : join(names)))
                             .c_str());
    }
    out[key] = value;
  }
  return out;
}

}  // namespace whisk::util
