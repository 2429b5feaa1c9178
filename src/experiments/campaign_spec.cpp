#include "experiments/campaign_spec.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/table.h"
#include "util/parse.h"
#include "util/registry.h"

namespace whisk::experiments {
namespace {

using util::trim_ws;

void check_item(bool ok, std::string_view key, std::string_view item,
                const char* expected) {
  WHISK_CHECK(ok, ("campaign axis \"" + std::string(key) + "\": \"" +
                   std::string(item) + "\" is not " + expected)
                      .c_str());
}

// The trimmed items of one `key=item,item,...` entry. Every axis reads its
// items through here, so an empty item aborts the same way on all of them.
std::vector<std::string_view> split_items(std::string_view value,
                                          std::string_view key) {
  std::vector<std::string_view> items;
  for (std::string_view raw : util::split_any(value, ",")) {
    items.push_back(trim_ws(raw));
    WHISK_CHECK(!items.back().empty(),
                ("campaign axis \"" + std::string(key) + "\": item " +
                 std::to_string(items.size()) + " is empty")
                    .c_str());
  }
  return items;
}

// "0..4" (inclusive) or a single value.
void parse_seed_item(std::string_view item, std::vector<std::uint64_t>* out) {
  const auto seed = [](std::string_view text) -> std::uint64_t {
    unsigned long long value = 0;
    check_item(util::parse_whole_number(text, &value), "seeds", text,
               "a whole number");
    return value;
  };
  const std::size_t dots = item.find("..");
  if (dots == std::string_view::npos) {
    out->push_back(seed(item));
    return;
  }
  const std::uint64_t lo = seed(trim_ws(item.substr(0, dots)));
  const std::uint64_t hi = seed(trim_ws(item.substr(dots + 2)));
  WHISK_CHECK(lo <= hi, ("campaign axis \"seeds\": range \"" +
                         std::string(item) + "\" runs backwards")
                            .c_str());
  WHISK_CHECK(hi - lo < 1000000,
              ("campaign axis \"seeds\": range \"" + std::string(item) +
               "\" expands to over a million seeds; that is almost "
               "certainly a typo")
                  .c_str());
  for (std::uint64_t s = lo; s <= hi; ++s) out->push_back(s);
}

// Render the seed list, collapsing maximal consecutive ascending runs of
// length >= 2 back into "a..b".
std::string seeds_to_string(const std::vector<std::uint64_t>& seeds) {
  std::string out;
  std::size_t i = 0;
  while (i < seeds.size()) {
    std::size_t j = i;
    while (j + 1 < seeds.size() && seeds[j + 1] == seeds[j] + 1) ++j;
    if (!out.empty()) out += ',';
    if (j > i) {
      out += std::to_string(seeds[i]) + ".." + std::to_string(seeds[j]);
    } else {
      out += std::to_string(seeds[i]);
    }
    i = j + 1;
  }
  return out;
}

// How an axis item is parsed, normalized and spelled, by item type. Spec
// types do all three themselves; numbers and fault lists are handled here.
template <typename T>
void parse_item(std::string_view text, std::string_view, T& out) {
  out = T::parse(text);
}

void parse_item(std::string_view text, std::string_view key, int& out) {
  unsigned long long value = 0;
  check_item(util::parse_whole_number(text, &value) && value > 0 &&
                 value <= static_cast<unsigned long long>(
                              std::numeric_limits<int>::max()),
             key, text, "a positive integer");
  out = static_cast<int>(value);
}

void parse_item(std::string_view text, std::string_view key, double& out) {
  check_item(util::parse_finite_double(text, &out) && out > 0.0, key, text,
             "a positive number");
}

// '+'-joined ("crash-restart?mtbf-s=120+flap"); "none" is the empty,
// fault-free regime.
void parse_item(std::string_view text, std::string_view,
                std::vector<cluster::FaultSpec>& out) {
  out = cluster::parse_fault_list(text);
}

template <typename T>
void normalize_item(T& item, std::string_view) {
  item = item.normalized();
}

template <typename T>
  requires std::is_arithmetic_v<T>
void normalize_item(T& item, std::string_view key) {
  WHISK_CHECK(item > 0, (std::string(key) + " must be positive").c_str());
}

void normalize_item(std::vector<cluster::FaultSpec>& regime,
                    std::string_view) {
  for (auto& f : regime) f = f.normalized();
}

void normalize_item(workload::ScenarioSpec& s, std::string_view) {
  s = s.normalized();
  // ',' and ';' split grid items and axes, so a value holding one would
  // not survive to_string() -> parse(), nor the worker wire, which ships
  // the grid as text. List values (mix weights) spell the list with '+'.
  for (const auto& [key, value] : s.params) {
    WHISK_CHECK(value.find_first_of(",;") == std::string::npos,
                ("campaign scenario \"" + s.to_string() + "\": " + key +
                 "=\"" + value +
                 "\" contains a grid separator (',' or ';'); join list "
                 "values with '+' instead (e.g. weights=1+2+3)")
                    .c_str());
  }
}

template <typename T>
std::string spell(const T& item) {
  return item.to_string();
}
// %.10g: whole numbers up to 10 digits print as integers.
std::string spell(double x) { return util::fmt_g(x); }
std::string spell(int n) { return spell(static_cast<double>(n)); }
std::string spell(const cluster::ClusterSpec& c) {
  return c.to_compact_string();
}
std::string spell(const std::vector<cluster::FaultSpec>& regime) {
  return cluster::fault_list_to_string(regime, '+');
}

template <typename T>
std::string join_items(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ',';
    out += spell(item);
  }
  return out;
}

const CampaignSpec& defaults() {
  static const CampaignSpec spec;
  return spec;
}

// A cells column that the cell's deployment decides, not its axis item.
using DeployedColumn = std::string (*)(const CampaignSpec&,
                                       const CampaignCell&,
                                       const cluster::ClusterSpec& deployed);

// One fixed grid axis: the CampaignSpec vector and CampaignCell coordinate
// it owns, and its spellings. Its items parse, normalize and spell by type.
template <typename T>
struct Axis {
  const char* key;
  const char* alias = "";  // a second spelling of the key
  const char* column;      // the cells column; also names the coordinate
  const char* label = "";  // label spelling: label + item + unit
  const char* unit = "";
  bool optional = false;  // to_string leaves it out while at its default
  std::vector<T> CampaignSpec::*items;
  std::size_t CampaignCell::*coord;
  DeployedColumn deployed = nullptr;  // null: the column spells the item

  static constexpr bool kNumeric = std::is_arithmetic_v<T>;
  [[nodiscard]] const T& item(const CampaignSpec& s,
                              const CampaignCell& c) const {
    return (s.*items)[c.*coord];
  }
  [[nodiscard]] bool in_play(const CampaignSpec& s) const {
    return s.*items != defaults().*items;
  }
};

// Every fixed grid axis, in expansion order (outermost first). Seeds and
// the override:<knob> axes are handled beside it: seeds take ranges and are
// innermost, and override axes are named by the grid.
constexpr std::tuple kAxes{
    Axis<SchedulerSpec>{.key = "schedulers", .column = "scheduler",
                        .items = &CampaignSpec::schedulers,
                        .coord = &CampaignCell::scheduler_i},
    Axis<workload::ScenarioSpec>{.key = "scenarios", .column = "scenario",
                                 .items = &CampaignSpec::scenarios,
                                 .coord = &CampaignCell::scenario_i},
    Axis<int>{.key = "nodes", .column = "nodes", .label = "nodes=",
              .items = &CampaignSpec::nodes, .coord = &CampaignCell::nodes_i,
              // The fleet size at t=0, whichever axis sized it.
              .deployed = [](auto&, auto&, auto& deployed) {
                return std::to_string(deployed.initial_nodes());
              }},
    Axis<int>{.key = "cores", .column = "cores", .label = "cores=",
              .items = &CampaignSpec::cores, .coord = &CampaignCell::cores_i},
    Axis<double>{.key = "memory-mb", .alias = "memory_mb",
                 .column = "memory_mb", .label = "mem=", .unit = "MiB",
                 .items = &CampaignSpec::memories_mb,
                 .coord = &CampaignCell::memory_i},
    Axis<cluster::ClusterSpec>{
        .key = "clusters", .column = "cluster", .optional = true,
        .items = &CampaignSpec::clusters, .coord = &CampaignCell::cluster_i,
        // The item without the folded autoscaler and faults (they have
        // their own columns), or a nodes grid's homogeneous fleet.
        .deployed = [](auto& s, auto& c, auto&) {
          return spell(s.cluster_mode() ? s.clusters[c.cluster_i]
                                        : cluster::ClusterSpec::homogeneous(
                                              s.nodes[c.nodes_i]));
        }},
    Axis<cluster::AutoscalerSpec>{
        .key = "autoscalers", .alias = "autoscaler", .column = "autoscaler",
        .label = "autoscaler=", .optional = true,
        .items = &CampaignSpec::autoscalers,
        .coord = &CampaignCell::autoscaler_i,
        .deployed = [](auto&, auto&, auto& d) { return spell(d.autoscaler); }},
    Axis<std::vector<cluster::FaultSpec>>{
        .key = "faults", .alias = "fault", .column = "faults",
        .label = "faults=", .optional = true, .items = &CampaignSpec::faults,
        .coord = &CampaignCell::faults_i,
        .deployed = [](auto&, auto&, auto& d) { return spell(d.faults); }},
    Axis<workload::WorkflowSpec>{
        .key = "workflows", .alias = "workflow", .column = "workflow",
        .label = "workflow=", .optional = true,
        .items = &CampaignSpec::workflows,
        .coord = &CampaignCell::workflow_i},
};
constexpr std::size_t kAxisCount = std::tuple_size_v<decltype(kAxes)>;

// to_string and the cells columns put seeds here, after the schedulers and
// scenarios; parsed grids, the worker wire and the cells files all pin it.
constexpr std::size_t kSeedsRenderAt = 2;

// Call fn(axis, k) on every row k of kAxes: in expansion order, or
// innermost first when `Reversed`.
template <bool Reversed = false, typename Fn>
constexpr void for_each_axis(Fn&& fn) {
  [&]<std::size_t... K>(std::index_sequence<K...>) {
    (fn(std::get<Reversed ? kAxisCount - 1 - K : K>(kAxes),
        Reversed ? kAxisCount - 1 - K : K),
     ...);
  }(std::make_index_sequence<kAxisCount>());
}

// The row of the axis named `key`, found at compile time.
consteval std::size_t axis_index(std::string_view key) {
  std::size_t index = kAxisCount;
  for_each_axis([&](const auto& axis, std::size_t k) {
    if (key == axis.key) index = k;
  });
  return index;
}

// The balanced contiguous partition both shard() and subshard() use:
// element j of m over a count of `total` starts at j*total/m. Monotone in
// j, exhaustive, disjoint, and every part is within one of total/m.
std::size_t partition_start(std::size_t total, std::size_t j, std::size_t m) {
  return total * j / m;
}

}  // namespace

std::string CampaignSpec::axis_names() {
  std::string out;
  for_each_axis([&](const auto& axis, std::size_t k) {
    if (k == kSeedsRenderAt) out += "seeds, ";
    out += std::string(axis.key) + ", ";
  });
  return out + "override:<name>";
}

ShardRange ShardRange::subshard(std::size_t j, std::size_t m) const {
  WHISK_CHECK(m > 0, "shard subdivision needs a positive count");
  WHISK_CHECK(j < m, "shard subdivision index out of range");
  ShardRange out;
  out.index = j;
  out.count = m;
  out.begin_group = begin_group + partition_start(groups(), j, m);
  out.end_group = begin_group + partition_start(groups(), j + 1, m);
  out.seeds_per_group = seeds_per_group;
  return out;
}

std::string ShardRange::selector() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

std::pair<std::size_t, std::size_t> ShardRange::parse_selector(
    std::string_view text) {
  const std::size_t slash = text.find('/');
  WHISK_CHECK(slash != std::string_view::npos,
              ("shard selector \"" + std::string(text) +
               "\" is not i/n (e.g. \"0/4\")")
                  .c_str());
  unsigned long long i = 0;
  unsigned long long n = 0;
  const bool ok =
      util::parse_whole_number(trim_ws(text.substr(0, slash)), &i) &&
      util::parse_whole_number(trim_ws(text.substr(slash + 1)), &n);
  WHISK_CHECK(ok, ("shard selector \"" + std::string(text) +
                   "\" needs two whole numbers i/n")
                      .c_str());
  WHISK_CHECK(n > 0, ("shard selector \"" + std::string(text) +
                      "\" has a zero shard count")
                         .c_str());
  WHISK_CHECK(i < n, ("shard selector \"" + std::string(text) +
                      "\" is out of range: index must be < count")
                         .c_str());
  return {static_cast<std::size_t>(i), static_cast<std::size_t>(n)};
}

ShardRange CampaignSpec::shard(std::size_t i, std::size_t n) const {
  WHISK_CHECK(n > 0, "campaign shard count must be positive");
  WHISK_CHECK(i < n, "campaign shard index must be < the shard count");
  const std::size_t g = group_count();
  ShardRange out;
  out.index = i;
  out.count = n;
  out.begin_group = partition_start(g, i, n);
  out.end_group = partition_start(g, i + 1, n);
  out.seeds_per_group = seeds_per_group();
  return out;
}

CampaignSpec CampaignSpec::parse(std::string_view text) {
  CampaignSpec spec;
  std::vector<std::string> seen_axes;
  for (std::string_view raw_axis : util::split_any(text, ";")) {
    const std::string_view entry = trim_ws(raw_axis);
    if (entry.empty()) continue;  // tolerate trailing ';'
    const std::size_t eq = entry.find('=');
    WHISK_CHECK(eq != std::string_view::npos,
                ("campaign grid entry \"" + std::string(entry) +
                 "\" is not axis=items; valid axes: " + axis_names())
                    .c_str());
    std::string key = util::ascii_lower(trim_ws(entry.substr(0, eq)));
    for_each_axis([&](const auto& axis, std::size_t) {
      if (*axis.alias != '\0' && key == axis.alias) key = axis.key;
    });
    const std::string_view value = trim_ws(entry.substr(eq + 1));
    WHISK_CHECK(std::find(seen_axes.begin(), seen_axes.end(), key) ==
                    seen_axes.end(),
                ("campaign grid sets axis \"" + key + "\" twice").c_str());
    seen_axes.push_back(key);
    WHISK_CHECK(!value.empty(),
                ("campaign axis \"" + key + "\" has no items").c_str());
    const std::vector<std::string_view> items = split_items(value, key);

    bool fixed = false;
    for_each_axis([&](const auto& axis, std::size_t) {
      if (key != axis.key) return;
      fixed = true;
      auto& out = spec.*axis.items;
      out.resize(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        parse_item(items[i], key, out[i]);
      }
    });
    if (fixed) continue;
    if (key == "seeds") {
      spec.seeds.clear();
      for (std::string_view item : items) parse_seed_item(item, &spec.seeds);
    } else if (key.rfind("override:", 0) == 0) {
      const std::string name = key.substr(9);
      WHISK_CHECK(!name.empty(), "campaign override axis has no name");
      std::vector<double> values(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        check_item(util::parse_finite_double(items[i], &values[i]), key,
                   items[i], "a number");
      }
      spec.overrides.emplace_back(name, std::move(values));
    } else {
      WHISK_CHECK(false, ("unknown campaign axis \"" + key +
                          "\"; valid axes: " + axis_names())
                             .c_str());
    }
  }
  return spec.normalized();
}

std::string CampaignSpec::to_string() const {
  std::string out;
  for_each_axis([&](const auto& axis, std::size_t k) {
    if (k == kSeedsRenderAt) out += "; seeds=" + seeds_to_string(seeds);
    if (axis.optional && !axis.in_play(*this)) return;
    out += "; " + std::string(axis.key) + "=" + join_items(this->*axis.items);
  });
  for (const auto& [name, values] : overrides) {
    out += "; override:" + name + "=" + join_items(values);
  }
  return out.substr(2);
}

CampaignSpec CampaignSpec::normalized() const {
  CampaignSpec out = *this;
  WHISK_CHECK(!out.seeds.empty(), "campaign has no seeds");
  for_each_axis([&](const auto& axis, std::size_t) {
    WHISK_CHECK(!(out.*axis.items).empty(),
                ("campaign has no " + std::string(axis.key)).c_str());
    for (auto& item : out.*axis.items) normalize_item(item, axis.key);
  });
  if (out.cluster_mode()) {
    WHISK_CHECK(out.nodes.size() == 1 && out.nodes[0] == 1,
                "campaign sets both a clusters axis and a nodes axis; the "
                "cluster specs already size the fleet — drop nodes=");
  }
  // An autoscalers or faults axis owns its dimension: a cluster item
  // carrying its own section would silently shadow (or be shadowed by) the
  // axis value for some cells.
  for (const auto& c : out.clusters) {
    WHISK_CHECK(!out.autoscaler_mode() || !c.autoscaler.enabled(),
                ("campaign sets an autoscalers axis, but cluster \"" +
                 c.to_compact_string() +
                 "\" carries its own autoscaler= section; set it in one place")
                    .c_str());
    WHISK_CHECK(!out.fault_mode() || c.faults.empty(),
                ("campaign sets a faults axis, but cluster \"" +
                 c.to_compact_string() +
                 "\" carries its own faults= section; set them in one place")
                    .c_str());
  }
  for (auto& [name, values] : out.overrides) {
    name = util::ascii_lower(name);
    WHISK_CHECK(!values.empty(), ("campaign override axis \"" + name +
                                  "\" has no values")
                                     .c_str());
    // with_override validates the name and the per-knob value range, with
    // the same diagnostics single experiments get.
    ExperimentSpec probe;
    for (double v : values) probe.with_override(name, v);
  }
  std::stable_sort(
      out.overrides.begin(), out.overrides.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < out.overrides.size(); ++i) {
    WHISK_CHECK(out.overrides[i].first != out.overrides[i - 1].first,
                ("campaign sets override axis \"" + out.overrides[i].first +
                 "\" twice")
                    .c_str());
  }
  return out;
}

bool CampaignSpec::cluster_mode() const {
  return std::get<axis_index("clusters")>(kAxes).in_play(*this);
}

bool CampaignSpec::autoscaler_mode() const {
  return std::get<axis_index("autoscalers")>(kAxes).in_play(*this);
}

bool CampaignSpec::fault_mode() const {
  return std::get<axis_index("faults")>(kAxes).in_play(*this);
}

bool CampaignSpec::workflow_mode() const {
  return std::get<axis_index("workflows")>(kAxes).in_play(*this);
}

std::size_t CampaignSpec::size() const {
  std::size_t total = seeds.size();
  for_each_axis([&](const auto& axis, std::size_t) {
    total *= (this->*axis.items).size();
  });
  for (const auto& [name, values] : overrides) total *= values.size();
  return total;
}

CampaignCell CampaignSpec::coordinates(std::size_t index) const {
  WHISK_CHECK(index < size(), "campaign cell index out of range");
  CampaignCell c;
  c.index = index;
  std::size_t rem = index;
  c.seed_i = rem % seeds.size();
  rem /= seeds.size();
  c.override_i.resize(overrides.size());
  for (std::size_t k = overrides.size(); k-- > 0;) {
    c.override_i[k] = rem % overrides[k].second.size();
    rem /= overrides[k].second.size();
  }
  for_each_axis</*Reversed=*/true>([&](const auto& axis, std::size_t) {
    c.*axis.coord = rem % (this->*axis.items).size();
    rem /= (this->*axis.items).size();
  });
  return c;
}

cluster::ClusterSpec CampaignSpec::deployment(const CampaignCell& cell) const {
  // The clusters axis and the legacy nodes axis are mutually exclusive
  // (normalized() enforces it), and so is each of the autoscalers and faults
  // axes with a cluster item's own non-default section.
  cluster::ClusterSpec spec =
      cluster_mode() ? clusters[cell.cluster_i]
                     : cluster::ClusterSpec::homogeneous(nodes[cell.nodes_i]);
  if (autoscaler_mode()) spec.autoscaler = autoscalers[cell.autoscaler_i];
  if (fault_mode()) {
    spec.faults = faults[cell.faults_i];
    // Faults interact with the resilience section (a lost-completion fault
    // needs a retry timeout), so the folded spec must be validated again.
    spec.canonical = false;
  }
  return spec;
}

CampaignCell CampaignSpec::cell(std::size_t index) const {
  CampaignCell c = coordinates(index);
  c.spec.scheduler(schedulers[c.scheduler_i])
      .scenario(scenarios[c.scenario_i])
      .cores(cores[c.cores_i])
      .memory_mb(memories_mb[c.memory_i])
      .seed(seeds[c.seed_i])
      .cluster(deployment(c));
  if (workflow_mode()) {
    c.spec.workflow(workflows[c.workflow_i]);
  }
  for (std::size_t k = 0; k < overrides.size(); ++k) {
    c.spec.with_override(overrides[k].first,
                         overrides[k].second[c.override_i[k]]);
  }
  return c;
}

std::size_t CampaignSpec::group_index(const CampaignCell& at) const {
  std::size_t index = 0;
  for_each_axis([&](const auto& axis, std::size_t) {
    const std::size_t n = (this->*axis.items).size();
    WHISK_CHECK(at.*axis.coord < n, ("group_index: " +
                                     std::string(axis.column) +
                                     " coordinate out of range")
                                        .c_str());
    index = index * n + at.*axis.coord;
  });
  WHISK_CHECK(at.override_i.empty() || at.override_i.size() == overrides.size(),
              "group_index: give one coordinate per override axis (or none)");
  for (std::size_t k = 0; k < overrides.size(); ++k) {
    const std::size_t coord = at.override_i.empty() ? 0 : at.override_i[k];
    WHISK_CHECK(coord < overrides[k].second.size(),
                "group_index: override coordinate out of range");
    index = index * overrides[k].second.size() + coord;
  }
  return index;
}

std::vector<metrics::RunContextField> CampaignSpec::coordinate_fields(
    const CampaignCell& cell) const {
  const cluster::ClusterSpec deployed = deployment(cell);
  std::vector<metrics::RunContextField> fields = {
      {"cell", std::to_string(cell.index), /*numeric=*/true}};
  for_each_axis([&](const auto& axis, std::size_t k) {
    if (k == kSeedsRenderAt) {
      fields.push_back({"seed", std::to_string(seeds[cell.seed_i]), true});
    }
    fields.push_back({axis.column,
                      axis.deployed ? axis.deployed(*this, cell, deployed)
                                    : spell(axis.item(*this, cell)),
                      axis.kNumeric});
  });
  return fields;
}

std::vector<std::uint64_t> CampaignSpec::first_seeds(int n) {
  WHISK_CHECK(n > 0, "first_seeds needs a positive count");
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    seeds.push_back(static_cast<std::uint64_t>(r));
  }
  return seeds;
}

std::string CampaignSpec::label(const CampaignCell& cell,
                                bool with_seed) const {
  std::string out;
  const auto add = [&out](const std::string& part) {
    if (!out.empty()) out += ' ';
    out += part;
  };
  for_each_axis([&](const auto& axis, std::size_t) {
    if ((this->*axis.items).size() > 1) {
      add(axis.label + spell(axis.item(*this, cell)) + axis.unit);
    }
  });
  for (std::size_t k = 0; k < overrides.size(); ++k) {
    if (overrides[k].second.size() > 1) {
      add(overrides[k].first + "=" +
          spell(overrides[k].second[cell.override_i[k]]));
    }
  }
  if (with_seed && seeds.size() > 1) {
    add("seed=" + std::to_string(seeds[cell.seed_i]));
  }
  // A grid that sweeps nothing is named by its first axis.
  if (out.empty()) add(spell(std::get<0>(kAxes).item(*this, cell)));
  return out;
}

}  // namespace whisk::experiments
