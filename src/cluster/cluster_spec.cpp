#include "cluster/cluster_spec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

#include "util/check.h"
#include "util/parse.h"
#include "util/registry.h"
#include "util/table.h"

namespace whisk::cluster {

const std::vector<util::ParamDecl>& node_group_params() {
  using Type = util::ParamDecl::Type;
  static const auto* params = new std::vector<util::ParamDecl>{
      util::derived_param(Type::kCount, "cores", "", "[1, 100000]",
                          "cores per node (default: the experiment's cores)"),
      util::number_param("cost-per-hour", 0, ">= 0",
                         "price of one node-hour, summed into cost_usd"),
      util::count_param("max-nodes", 1000000, "<= 1000000",
                        "most nodes the autoscaler may run"),
      util::derived_param(Type::kNumber, "memory-mb", "", "> 0",
                          "container memory per node in MiB (default: the "
                          "experiment's memory-mb)"),
      util::count_param("min-nodes", 1, "<= 1000000",
                        "fewest nodes the autoscaler keeps (0 for a group "
                        "deployed empty)"),
  };
  return *params;
}

namespace {

using util::split_any;
using util::trim_ws;

bool valid_group_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

constexpr const char* kSloMetricNames = "mean, p50, p75, p95, p99, max";

bool valid_slo_metric(const std::string& metric) {
  return metric == "mean" || metric == "p50" || metric == "p75" ||
         metric == "p95" || metric == "p99" || metric == "max";
}

// Parameter values are embedded verbatim in to_string()/to_compact_string(),
// whose section and list separators include ';', '|', ',' and '+' — a value
// containing one (e.g. memory-mb=6.4e+4) would reparse as a split point and
// break the round-trip contract. Every numeric value has a plain-decimal
// spelling. `kind` and `name` name the section as the diagnostics do.
void check_no_separators(std::string_view kind, std::string_view name,
                         const util::ParamMap& params) {
  for (const auto& [key, value] : params) {
    if (value.find_first_of(";|,+& \t") == std::string::npos) continue;
    std::string subject = "cluster " + std::string(kind);
    if (!name.empty()) subject += " \"" + std::string(name) + "\"";
    WHISK_CHECK(false,
                (subject + ": " + key + "=\"" + value +
                 "\" contains a spec separator character (one of ';|,+&' or "
                 "whitespace); write the plain-decimal form instead (e.g. "
                 "64000, not 6.4e+4)")
                    .c_str());
  }
}

// A group parameter key with its '_' spelling (memory_mb) folded onto the
// declared key; other keys stay verbatim for the unknown-key diagnostic.
std::string group_param_key(const std::string& key) {
  std::string dashed = util::ascii_lower(key);
  std::replace(dashed.begin(), dashed.end(), '_', '-');
  for (const auto& param : node_group_params()) {
    if (param.name == dashed) return dashed;
  }
  return key;
}

// Typed reads of a group's folded parameters; cores and memory-mb default
// to the experiment's values, so they are read with a fallback.
util::ParamReader group_reader(const NodeGroupSpec& group) {
  return {group.params, node_group_params(), "cluster group", group.name};
}

int group_cores(const NodeGroupSpec& group, int base_cores) {
  return static_cast<int>(group_reader(group).count(
      "cores", static_cast<std::size_t>(base_cores)));
}

const NodeGroupSpec& group_at(const ClusterSpec& spec, std::size_t group) {
  WHISK_CHECK(group < spec.groups.size(), "cluster group index out of range");
  return spec.groups[group];
}

// The non-empty items of a ','/'+'-separated list, each through `parse`.
template <typename Parse>
auto parse_list(std::string_view text, Parse parse) {
  std::vector<decltype(parse(text))> out;
  for (std::string_view item : split_any(text, ",+")) {
    const std::string_view trimmed = trim_ws(item);
    if (!trimmed.empty()) out.push_back(parse(trimmed));
  }
  return out;
}

template <typename T, typename Render>
std::string render_list(const std::vector<T>& items, char sep,
                        Render render) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += render(items[i]);
  }
  return out;
}

// `name[:count][?key=value&...]`.
NodeGroupSpec parse_group(std::string_view item) {
  NodeGroupSpec group;
  std::string_view head = item;
  const std::size_t q = item.find('?');
  if (q != std::string_view::npos) {
    head = item.substr(0, q);
    // Keys are folded ('_' aliases) and validated in normalized().
    util::parse_param_list(item.substr(q + 1),
                           "cluster group \"" + std::string(item) + "\"",
                           &group.params);
  }
  const std::size_t colon = head.find(':');
  group.name = util::ascii_lower(trim_ws(head.substr(0, colon)));
  if (colon != std::string_view::npos) {
    const std::string_view count_text = trim_ws(head.substr(colon + 1));
    unsigned long long count = 0;
    const bool ok = util::parse_whole_number(count_text, &count) &&
                    count <= 1000000;
    WHISK_CHECK(ok, ("cluster group \"" + std::string(item) +
                     "\": count \"" + std::string(count_text) +
                     "\" is not a whole number (0..1000000)")
                        .c_str());
    group.count = static_cast<int>(count);
  }
  return group;
}

std::string group_to_string(const NodeGroupSpec& g) {
  return util::render_params(g.name + ":" + std::to_string(g.count),
                             g.params);
}

// `kind@time:group[/node]`.
LifecycleEvent parse_event(std::string_view item) {
  const auto fail = [&item](const std::string& why) {
    WHISK_CHECK(false, ("cluster lifecycle event \"" + std::string(item) +
                        "\" " + why +
                        "; expected kind@time:group[/node] with kind in "
                        "join, drain, fail")
                           .c_str());
  };
  LifecycleEvent event;
  const std::size_t at = item.find('@');
  if (at == std::string_view::npos) fail("has no '@'");
  const std::string kind = util::ascii_lower(trim_ws(item.substr(0, at)));
  if (kind == "join") {
    event.kind = LifecycleKind::kJoin;
  } else if (kind == "drain") {
    event.kind = LifecycleKind::kDrain;
  } else if (kind == "fail") {
    event.kind = LifecycleKind::kFail;
  } else {
    fail("has unknown kind \"" + kind + "\"");
  }
  std::string_view rest = item.substr(at + 1);
  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) fail("has no ':' after the time");
  double time = 0.0;
  // The 1e9 s (~31 sim-years) bound keeps %.10g rendering in plain form:
  // an exponent's '+' would reparse as the event-list separator.
  if (!util::parse_finite_double(trim_ws(rest.substr(0, colon)), &time) ||
      time < 0.0 || time > 1e9) {
    fail("has a bad time \"" + std::string(trim_ws(rest.substr(0, colon))) +
         "\" (need a finite number in [0, 1e9])");
  }
  event.time = time;
  std::string_view target = trim_ws(rest.substr(colon + 1));
  const std::size_t slash = target.find('/');
  if (slash != std::string_view::npos) {
    if (event.kind == LifecycleKind::kJoin) {
      fail("names a node index, but join events add a fresh node — give "
           "just the group");
    }
    unsigned long long node = 0;
    if (!util::parse_whole_number(trim_ws(target.substr(slash + 1)), &node) ||
        node > static_cast<unsigned long long>(
                   std::numeric_limits<int>::max())) {
      fail("has a bad node index \"" +
           std::string(trim_ws(target.substr(slash + 1))) + "\"");
    }
    event.node = static_cast<int>(node);
    target = trim_ws(target.substr(0, slash));
  } else if (event.kind != LifecycleKind::kJoin) {
    fail("names no node index; drain/fail target one node as group/node");
  }
  event.group = util::ascii_lower(target);
  if (event.group.empty()) fail("has an empty group name");
  return event;
}

// Shortest %g rendering that parses back to exactly `value`, so
// parse(to_string()) round-trips bit-for-bit without printing 17 digits
// for "0.1". Within the validated [0, 1e9] range %g never switches to e+
// exponent form (whose '+' would reparse as a list separator); tiny
// fractions may render as e-05, which contains no separator. Shared by
// event times and SLO thresholds.
std::string format_number(double value) {
  char buffer[40];
  for (int precision = 10; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

// Shared by SloSpec::parse and ClusterSpec::normalized (hand-built specs
// skip parse, so the checks must not live only there). `threshold` is the
// threshold as the input spelled it.
void check_slo(const SloSpec& slo, std::string_view threshold) {
  WHISK_CHECK(valid_slo_metric(slo.metric),
              ("cluster slo metric \"" + slo.metric +
               "\" is unknown; metrics: " + kSloMetricNames)
                  .c_str());
  WHISK_CHECK(slo.threshold_s > 0.0 && slo.threshold_s <= 1e9,
              ("cluster slo threshold must be in (0, 1e9] seconds, got \"" +
               std::string(threshold) + "\"")
                  .c_str());
}

std::string event_to_string(const LifecycleEvent& e) {
  std::string out = std::string(to_string(e.kind)) + "@" +
                    format_number(e.time) + ":" + e.group;
  if (e.kind != LifecycleKind::kJoin) {
    out += "/" + std::to_string(e.node);
  }
  return out;
}

// Every keyed section, in rendering order: its key, how its text sets a
// spec, and its rendering — empty at the section's default, which omits it.
struct Section {
  std::string_view key;
  void (*parse)(std::string_view text, ClusterSpec& spec);
  std::string (*render)(const ClusterSpec& spec, char list_sep);
};

constexpr Section kSections[] = {
    {"keep-alive",
     [](std::string_view text, ClusterSpec& spec) {
       spec.keep_alive = container::KeepAliveSpec::parse(text);
     },
     [](const ClusterSpec& spec, char) {
       return spec.keep_alive == container::KeepAliveSpec{}
                  ? std::string()
                  : spec.keep_alive.to_string();
     }},
    {"autoscaler",
     [](std::string_view text, ClusterSpec& spec) {
       spec.autoscaler = AutoscalerSpec::parse(text);
     },
     [](const ClusterSpec& spec, char) {
       return spec.autoscaler.enabled() ? spec.autoscaler.to_string()
                                        : std::string();
     }},
    {"faults",
     [](std::string_view text, ClusterSpec& spec) {
       spec.faults = parse_fault_list(text);
     },
     [](const ClusterSpec& spec, char list_sep) {
       return spec.faults.empty() ? std::string()
                                  : fault_list_to_string(spec.faults, list_sep);
     }},
    {"resilience",
     [](std::string_view text, ClusterSpec& spec) {
       spec.resilience = ResilienceSpec::parse(text);
     },
     [](const ClusterSpec& spec, char) {
       return spec.resilience.enabled() ? spec.resilience.to_string()
                                        : std::string();
     }},
    {"slo",
     [](std::string_view text, ClusterSpec& spec) {
       spec.slo = SloSpec::parse(text);
       spec.slo_set = true;
     },
     [](const ClusterSpec& spec, char) {
       return spec.slo_set ? spec.slo.to_string() : std::string();
     }},
    {"events",
     [](std::string_view text, ClusterSpec& spec) {
       spec.events = parse_list(text, parse_event);
     },
     [](const ClusterSpec& spec, char list_sep) {
       return render_list(spec.events, list_sep, event_to_string);
     }},
};

std::string render(const ClusterSpec& spec, char section_sep,
                   char list_sep) {
  std::string out = render_list(spec.groups, list_sep, group_to_string);
  for (const Section& section : kSections) {
    const std::string text = section.render(spec, list_sep);
    if (text.empty()) continue;
    out += section_sep;
    if (section_sep == ';') out += ' ';
    out += std::string(section.key) + "=" + text;
  }
  return out;
}

}  // namespace

SloSpec SloSpec::parse(std::string_view text) {
  const auto fail = [&text](const std::string& why) {
    WHISK_CHECK(false, ("cluster slo \"" + std::string(text) + "\" " + why +
                        "; expected metric<threshold-s like \"p99<2.5\" "
                        "with metric in " + kSloMetricNames)
                           .c_str());
  };
  const std::size_t lt = text.find('<');
  if (lt == std::string_view::npos) fail("has no '<'");
  SloSpec slo;
  slo.metric = util::ascii_lower(trim_ws(text.substr(0, lt)));
  if (!valid_slo_metric(slo.metric)) {
    fail("has unknown metric \"" + slo.metric + "\"");
  }
  const std::string_view threshold = trim_ws(text.substr(lt + 1));
  if (!util::parse_finite_double(threshold, &slo.threshold_s)) {
    fail("has a bad threshold \"" + std::string(threshold) + "\"");
  }
  check_slo(slo, threshold);
  return slo;
}

std::string SloSpec::to_string() const {
  return metric + "<" + format_number(threshold_s);
}

ClusterSpec ClusterSpec::parse(std::string_view text) {
  WHISK_CHECK(!trim_ws(text).empty(),
              "empty cluster spec; expected group[,group...][; "
              "keep-alive=...][; events=...] like \"big:4?cores=16,small:8; "
              "keep-alive=ttl?idle-s=600\"");
  // Each section's text by its key: the trimmed, lowercased text before its
  // '='. A section with no known key is the group list, keyed "".
  std::map<std::string, std::string_view> sections;
  for (std::string_view raw_section : split_any(text, ";|")) {
    const std::string_view section = trim_ws(raw_section);
    if (section.empty()) continue;  // tolerate trailing separators
    const std::size_t eq = section.find('=');
    std::string key = util::ascii_lower(trim_ws(section.substr(0, eq)));
    if (key == "keep_alive") key = "keep-alive";
    const bool keyed =
        eq != std::string_view::npos &&
        std::any_of(std::begin(kSections), std::end(kSections),
                    [&key](const Section& s) { return s.key == key; });
    // A group list has no '=' before its first '?', so such a section is a
    // misspelt key.
    const bool misspelt =
        !keyed && eq != std::string_view::npos && section.find('?') > eq;
    if (!keyed) key.clear();
    const std::string_view body =
        keyed ? trim_ws(section.substr(eq + 1)) : section;
    if (misspelt || !sections.emplace(key, body).second) {
      std::vector<std::string> keys;
      for (const Section& s : kSections) keys.emplace_back(s.key);
      WHISK_CHECK(false,
                  ("cluster spec \"" + std::string(text) + "\" " +
                   (misspelt ? "has unknown section \"" +
                                   std::string(trim_ws(section.substr(0, eq))) +
                                   "\""
                    : keyed ? "sets " + key + " twice"
                            : std::string("has two group-list sections (did "
                                          "you mean one list separated by "
                                          "',' or '+'?)")) +
                   "; sections: " + util::join(keys) + ", and one group list")
                      .c_str());
    }
  }
  ClusterSpec spec;
  spec.groups = parse_list(sections[""], parse_group);
  for (const Section& section : kSections) {
    const auto it = sections.find(std::string(section.key));
    if (it != sections.end()) section.parse(it->second, spec);
  }
  WHISK_CHECK(!spec.groups.empty(), ("cluster spec \"" + std::string(text) +
                                     "\" lists no node groups")
                                        .c_str());
  return spec.normalized();
}

ClusterSpec ClusterSpec::homogeneous(int nodes) {
  WHISK_CHECK(nodes > 0, "cluster needs at least one node");
  ClusterSpec spec;
  spec.groups = {NodeGroupSpec{"node", nodes, {}}};
  // Nothing to validate or canonicalize beyond the positive count, so the
  // per-cell deployments of a nodes= grid skip normalized()'s walk.
  spec.canonical = true;
  return spec;
}

std::string ClusterSpec::to_string() const { return render(*this, ';', ','); }

std::string ClusterSpec::to_compact_string() const {
  return render(*this, '|', '+');
}

ClusterSpec ClusterSpec::normalized() const {
  // Already validated-and-canonicalized specs pass through untouched —
  // campaigns normalize the `clusters=` axis once and every cell, every
  // ExperimentSpec and every Cluster built from it skips the re-walk.
  if (canonical) return *this;
  ClusterSpec out = *this;
  WHISK_CHECK(!out.groups.empty(), "cluster spec has no node groups");

  std::vector<std::string> group_names;
  std::size_t initial = 0;
  for (std::size_t g = 0; g < out.groups.size(); ++g) {
    NodeGroupSpec& group = out.groups[g];
    group.name = util::ascii_lower(group.name);
    WHISK_CHECK(valid_group_name(group.name),
                ("cluster group name \"" + group.name +
                 "\" is not [a-z0-9_-]+ (separators would collide with the "
                 "spec grammar)")
                    .c_str());
    WHISK_CHECK(std::find(group_names.begin(), group_names.end(),
                          group.name) == group_names.end(),
                ("cluster spec lists group \"" + group.name + "\" twice")
                    .c_str());
    group_names.push_back(group.name);
    WHISK_CHECK(group.count >= 0, ("cluster group \"" + group.name +
                                   "\" has a negative node count")
                                      .c_str());
    initial += static_cast<std::size_t>(group.count);

    util::ParamMap params;
    for (const auto& [raw_key, value] : group.params) {
      const std::string key = group_param_key(raw_key);
      WHISK_CHECK(params.emplace(key, value).second,
                  ("cluster group \"" + group.name + "\" sets parameter \"" +
                   key + "\" twice")
                      .c_str());
    }
    group.params = util::fold_params(params, node_group_params(),
                                     "cluster group", group.name);
    check_no_separators("group", group.name, group.params);
    group_reader(group).check();

    // Scaling bounds must bracket each other and the initial deployment:
    // a fleet born outside its own band would scale on the first tick for
    // a reason the user never asked for.
    const std::size_t lo = out.group_min_nodes(g);
    const std::size_t hi = out.group_max_nodes(g);
    WHISK_CHECK(lo <= hi, ("cluster group \"" + group.name +
                           "\": min-nodes=" + std::to_string(lo) +
                           " exceeds max-nodes=" + std::to_string(hi))
                              .c_str());
    const auto count = static_cast<std::size_t>(group.count);
    const bool bounded = group.params.count("min-nodes") != 0 ||
                         group.params.count("max-nodes") != 0;
    WHISK_CHECK(!bounded || (count >= lo && count <= hi),
                ("cluster group \"" + group.name + "\": count " +
                 std::to_string(group.count) + " is outside [min-nodes=" +
                 std::to_string(lo) + ", max-nodes=" + std::to_string(hi) +
                 "]")
                    .c_str());
  }
  WHISK_CHECK(initial > 0,
              "cluster spec deploys zero nodes at t=0; give at least one "
              "group a positive count");

  out.keep_alive = out.keep_alive.normalized();
  check_no_separators("keep-alive", out.keep_alive.name,
                      out.keep_alive.params);
  out.autoscaler = out.autoscaler.normalized();
  check_no_separators("autoscaler", out.autoscaler.name,
                      out.autoscaler.params);

  bool drops_completions = false;
  for (auto& fault : out.faults) {
    fault = fault.normalized();
    WHISK_CHECK(fault.enabled(),
                "cluster faults list contains \"none\" — parse_fault_list "
                "drops it; hand-built specs must too");
    check_no_separators("fault", fault.name, fault.params);
    // A scoped fault must name a real group, checked here so a typo dies
    // at parse time, not when the process first fires mid-sweep.
    // Not every process declares `group`, so read it with a fallback.
    const std::string scope = util::ascii_lower(fault.text("group", ""));
    if (!scope.empty()) {
      WHISK_CHECK(std::find(group_names.begin(), group_names.end(), scope) !=
                      group_names.end(),
                  ("cluster fault \"" + fault.name +
                   "\" targets unknown group \"" + scope +
                   "\"; groups: " + util::join(group_names))
                      .c_str());
    }
    drops_completions =
        drops_completions || fault_drops_completions(fault.name);
  }

  out.resilience = out.resilience.normalized();
  check_no_separators("resilience", "", out.resilience.params);
  // A lost completion leaves the call permanently in flight unless a
  // timeout can re-drive it — without one the run would deadlock, so
  // reject the combination up front.
  if (drops_completions) {
    WHISK_CHECK(out.resilience.config().timeout_s > 0.0,
                "cluster faults include a completion-dropping process "
                "(lost-completion) but resilience sets no timeout-s; the "
                "run would never finish — add resilience=timeout-s=...");
  }

  if (out.slo_set) check_slo(out.slo, format_number(out.slo.threshold_s));

  // Validate the event schedule exactly as the cluster will execute it:
  // walk the events in firing order with a running per-group node count
  // (joins increment it; node indices never shrink, since drained/failed
  // nodes keep their slot), so a drain that precedes its enabling join is
  // rejected at parse time instead of aborting a sweep mid-run.
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const LifecycleEvent& a, const LifecycleEvent& b) {
                     return a.time < b.time;
                   });
  std::map<std::string, int> node_count;
  for (const auto& group : out.groups) node_count[group.name] = group.count;
  // Which nodes earlier events already drained or failed — the same state
  // rules Cluster::apply_lifecycle enforces at runtime (drain needs an
  // active node; fail needs a not-yet-failed one; a draining node may
  // still fail).
  std::map<std::pair<std::string, int>, LifecycleKind> consumed;
  for (auto& event : out.events) {
    WHISK_CHECK(event.time >= 0.0 && event.time <= 1e9,
                ("cluster lifecycle event \"" + event_to_string(event) +
                 "\" has a time outside [0, 1e9] seconds")
                    .c_str());
    event.group = util::ascii_lower(event.group);
    const auto it = node_count.find(event.group);
    if (it == node_count.end()) {
      WHISK_CHECK(false, ("cluster lifecycle event \"" +
                          event_to_string(event) +
                          "\" targets unknown group \"" + event.group +
                          "\"; groups: " + util::join(group_names))
                             .c_str());
    }
    if (event.kind == LifecycleKind::kJoin) {
      ++it->second;
      continue;
    }
    WHISK_CHECK(
        event.node >= 0 && event.node < it->second,
        ("cluster lifecycle event \"" + event_to_string(event) +
         "\" targets node " + std::to_string(event.node) + " of group \"" +
         event.group + "\", which has only " + std::to_string(it->second) +
         " node(s) at t=" + util::fmt_g(event.time) +
         " (a later join does not count)")
            .c_str());
    const auto key = std::make_pair(event.group, event.node);
    const auto prior = consumed.find(key);
    if (prior != consumed.end()) {
      const bool allowed = event.kind == LifecycleKind::kFail &&
                           prior->second == LifecycleKind::kDrain;
      WHISK_CHECK(allowed,
                  ("cluster lifecycle event \"" + event_to_string(event) +
                   "\" targets a node an earlier event already " +
                   (prior->second == LifecycleKind::kFail ? "failed"
                                                          : "drained") +
                   " (only fail-after-drain is meaningful)")
                      .c_str());
    }
    consumed[key] = event.kind;
  }
  out.canonical = true;
  return out;
}

bool ClusterSpec::has_disruptive_events() const {
  for (const auto& event : events) {
    if (event.kind != LifecycleKind::kJoin) return true;
  }
  return false;
}

bool ClusterSpec::has_disruptive_faults() const {
  for (const auto& fault : faults) {
    if (fault.enabled() && fault_is_disruptive(fault.name)) return true;
  }
  return false;
}

bool ClusterSpec::needs_in_flight_tracking() const {
  return has_disruptive_events() || has_disruptive_faults() ||
         autoscaler.enabled();
}

double ClusterSpec::group_cost_per_hour(std::size_t group) const {
  return group_reader(group_at(*this, group)).number("cost-per-hour");
}

std::size_t ClusterSpec::group_min_nodes(std::size_t group) const {
  // Groups deployed empty (join-only) default to an empty floor; every
  // other group keeps at least one node unless min-nodes=0 is explicit.
  const NodeGroupSpec& g = group_at(*this, group);
  return g.count > 0 ? group_reader(g).count("min-nodes")
                     : group_reader(g).count("min-nodes", 0);
}

std::size_t ClusterSpec::group_max_nodes(std::size_t group) const {
  return group_reader(group_at(*this, group)).count("max-nodes");
}

std::size_t ClusterSpec::initial_nodes() const {
  std::size_t total = 0;
  for (const auto& group : groups) {
    total += static_cast<std::size_t>(std::max(group.count, 0));
  }
  return total;
}

int ClusterSpec::initial_cores(int base_cores) const {
  long long total = 0;
  for (const auto& group : groups) {
    total += static_cast<long long>(group_cores(group, base_cores)) *
             std::max(group.count, 0);
  }
  return static_cast<int>(
      std::min<long long>(total, std::numeric_limits<int>::max()));
}

std::size_t ClusterSpec::group_index(std::string_view name) const {
  const std::string key = util::ascii_lower(name);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].name == key) return g;
  }
  std::vector<std::string> names;
  names.reserve(groups.size());
  for (const auto& group : groups) names.push_back(group.name);
  WHISK_CHECK(false, ("unknown cluster group \"" + key +
                      "\"; groups: " + util::join(names))
                         .c_str());
  return 0;
}

node::NodeParams ClusterSpec::node_params(
    std::size_t group, const node::NodeParams& base) const {
  const NodeGroupSpec& g = group_at(*this, group);
  node::NodeParams params = base;
  params.keep_alive = keep_alive;
  params.cores = group_cores(g, base.cores);
  params.memory_limit_mb =
      group_reader(g).number("memory-mb", base.memory_limit_mb);
  return params;
}

}  // namespace whisk::cluster
