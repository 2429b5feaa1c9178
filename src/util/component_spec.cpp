#include "util/component_spec.h"

#include <algorithm>

#include "util/table.h"

namespace whisk::util {
namespace {

std::string subject(std::string_view kind, std::string_view name) {
  std::string out(kind);
  if (!name.empty()) out += " \"" + std::string(name) + "\"";
  return out;
}

void bad_value(const ParamReader& r, std::string_view key,
               std::string_view text, std::string_view want) {
  WHISK_CHECK(false, (subject(r.kind, r.name) + " parameter " +
                      std::string(key) + "=\"" + std::string(text) +
                      "\" is not " + std::string(want))
                         .c_str());
}

}  // namespace

bool in_range(double value, std::string_view range) {
  if (range.empty()) return true;
  const std::size_t comma = range.find(',');
  if (comma != std::string_view::npos) {  // "[lo, hi)": both bounds
    const std::string lo(range.substr(1, comma - 1));
    const std::string hi(range.substr(comma + 1, range.size() - comma - 2));
    return in_range(value, (range.front() == '(' ? ">" : ">=") + lo) &&
           in_range(value, (range.back() == ')' ? "<" : "<=") + hi);
  }
  const bool inclusive = range.size() > 1 && range[1] == '=';
  double limit = 0.0;
  WHISK_CHECK((range[0] == '>' || range[0] == '<') &&
                  parse_finite_double(trim_ws(range.substr(inclusive ? 2 : 1)),
                                      &limit),
              ("bad parameter range \"" + std::string(range) + "\"").c_str());
  if (range[0] == '<') return inclusive ? value <= limit : value < limit;
  return inclusive ? value >= limit : value > limit;
}

ParamDecl number_param(std::string name, double fallback, std::string range,
                       std::string help) {
  return {std::move(name), fmt_g(fallback), std::move(help),
          ParamDecl::Type::kNumber, fallback, std::move(range)};
}

ParamDecl count_param(std::string name, std::size_t fallback,
                      std::string range, std::string help) {
  ParamDecl decl = number_param(std::move(name), static_cast<double>(fallback),
                                std::move(range), std::move(help));
  decl.type = ParamDecl::Type::kCount;
  return decl;
}

ParamDecl text_param(std::string name, std::string fallback,
                     std::string help) {
  return {std::move(name), std::move(fallback), std::move(help)};
}

ParamDecl derived_param(ParamDecl::Type type, std::string name,
                        std::string note, std::string range,
                        std::string help) {
  return {std::move(name), std::move(note), std::move(help), type,
          std::nullopt, std::move(range)};
}

bool has_param(const ParamMap& params, std::string_view key) {
  return params.count(ascii_lower(key)) != 0;
}

double ParamReader::number(std::string_view key,
                           std::optional<double> fallback) const {
  const auto it = params.find(ascii_lower(key));
  if (it == params.end()) return fallback ? *fallback : *decl(key, true).fallback;
  double value = 0.0;
  if (!parse_finite_double(it->second, &value)) {
    bad_value(*this, key, it->second, "a finite number");
  }
  return value;
}

std::size_t ParamReader::count(std::string_view key,
                               std::optional<std::size_t> fallback) const {
  const auto it = params.find(ascii_lower(key));
  if (it == params.end()) {
    return fallback ? *fallback
                    : static_cast<std::size_t>(*decl(key, true).fallback);
  }
  unsigned long long value = 0;
  if (!parse_whole_number(it->second, &value)) {
    bad_value(*this, key, it->second, "a whole number >= 0");
  }
  return static_cast<std::size_t>(value);
}

std::string ParamReader::text(std::string_view key,
                              std::optional<std::string_view> fallback) const {
  const auto it = params.find(ascii_lower(key));
  if (it != params.end()) return it->second;
  return std::string(fallback ? *fallback
                              : decl(key, false).default_value);
}

const ParamDecl& ParamReader::decl(std::string_view key, bool typed) const {
  const std::string lower = ascii_lower(key);
  const auto it =
      std::find_if(declared.begin(), declared.end(),
                   [&lower](const ParamDecl& p) { return p.name == lower; });
  WHISK_CHECK(it != declared.end(),
              (subject(kind, name) + " reads undeclared parameter \"" +
               lower + "\"")
                  .c_str());
  const bool text = it->type == ParamDecl::Type::kText;
  if (typed == text || (typed && !it->fallback)) {
    WHISK_CHECK(false, (subject(kind, name) + " parameter " + it->name +
                        (typed == text ? (text ? " is text; read it with text()"
                                               : " is typed; read it with "
                                                 "number() or count()")
                                       : " has a derived default; read it "
                                         "with a fallback"))
                           .c_str());
  }
  return *it;
}

void ParamReader::check() const {
  for (const auto& p : declared) {
    const auto it = params.find(p.name);
    if (it == params.end() || p.type == ParamDecl::Type::kText) continue;
    const double value = p.type == ParamDecl::Type::kNumber
                             ? number(p.name)
                             : static_cast<double>(count(p.name));
    if (in_range(value, p.range)) continue;
    const bool interval = p.range[0] == '[' || p.range[0] == '(';
    WHISK_CHECK(false, (subject(kind, name) + ": " + p.name + " must be " +
                        (interval ? "in " : "") + p.range + ", got \"" +
                        it->second + "\"")
                           .c_str());
  }
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
