#include "experiments/campaign_spec.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/table.h"
#include "util/parse.h"
#include "util/registry.h"

namespace whisk::experiments {
namespace {

constexpr const char* kAxisNames =
    "schedulers, scenarios, seeds, nodes, cores, memory-mb, clusters, "
    "autoscalers, faults, workflows, override:<name>";

using util::trim_ws;

std::vector<std::string_view> split(std::string_view text, char sep) {
  return util::split_any(text, std::string_view(&sep, 1));
}

std::uint64_t parse_seed(std::string_view item, std::string_view axis) {
  unsigned long long value = 0;
  WHISK_CHECK(util::parse_whole_number(item, &value),
              ("campaign axis \"" + std::string(axis) + "\": \"" +
               std::string(item) + "\" is not a whole number")
                  .c_str());
  return value;
}

int parse_positive_int(std::string_view item, std::string_view axis) {
  unsigned long long value = 0;
  const bool ok = util::parse_whole_number(item, &value) && value > 0 &&
                  value <= static_cast<unsigned long long>(
                               std::numeric_limits<int>::max());
  WHISK_CHECK(ok, ("campaign axis \"" + std::string(axis) + "\": \"" +
                   std::string(item) + "\" is not a positive integer")
                      .c_str());
  return static_cast<int>(value);
}

double parse_positive_double(std::string_view item, std::string_view axis) {
  double value = 0.0;
  const bool ok = util::parse_finite_double(item, &value) && value > 0.0;
  WHISK_CHECK(ok, ("campaign axis \"" + std::string(axis) + "\": \"" +
                   std::string(item) + "\" is not a positive number")
                      .c_str());
  return value;
}

// "0..4" (inclusive) or a single value.
void parse_seed_items(std::string_view value,
                      std::vector<std::uint64_t>* out) {
  for (std::string_view raw : split(value, ',')) {
    const std::string_view item = trim_ws(raw);
    const std::size_t dots = item.find("..");
    if (dots == std::string_view::npos) {
      out->push_back(parse_seed(item, "seeds"));
      continue;
    }
    const std::uint64_t lo = parse_seed(trim_ws(item.substr(0, dots)), "seeds");
    const std::uint64_t hi = parse_seed(trim_ws(item.substr(dots + 2)), "seeds");
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

template <typename T, typename Fn>
std::string join_items(const std::vector<T>& items, Fn&& render) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ',';
    out += render(item);
  }
  return out;
}

// The balanced contiguous partition both shard() and subshard() use:
// element j of m over a count of `total` starts at j*total/m. Monotone in
// j, exhaustive, disjoint, and every part is within one of total/m.
std::size_t partition_start(std::size_t total, std::size_t j, std::size_t m) {
  return total * j / m;
}

}  // namespace

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
  for (std::string_view raw_axis : split(text, ';')) {
    const std::string_view axis = trim_ws(raw_axis);
    if (axis.empty()) continue;  // tolerate trailing ';'
    const std::size_t eq = axis.find('=');
    WHISK_CHECK(eq != std::string_view::npos,
                ("campaign grid entry \"" + std::string(axis) +
                 "\" is not axis=items; valid axes: " + kAxisNames)
                    .c_str());
    std::string key = util::ascii_lower(trim_ws(axis.substr(0, eq)));
    if (key == "memory_mb") key = "memory-mb";  // alias; one axis identity
    if (key == "autoscaler") key = "autoscalers";
    if (key == "fault") key = "faults";
    if (key == "workflow") key = "workflows";
    const std::string_view value = trim_ws(axis.substr(eq + 1));
    WHISK_CHECK(std::find(seen_axes.begin(), seen_axes.end(), key) ==
                    seen_axes.end(),
                ("campaign grid sets axis \"" + key + "\" twice").c_str());
    seen_axes.push_back(key);
    WHISK_CHECK(!value.empty(),
                ("campaign axis \"" + key + "\" has no items").c_str());

    if (key == "schedulers") {
      spec.schedulers.clear();
      for (std::string_view item : split(value, ',')) {
        spec.schedulers.push_back(SchedulerSpec::parse(trim_ws(item)));
      }
    } else if (key == "scenarios") {
      spec.scenarios.clear();
      for (std::string_view item : split(value, ',')) {
        spec.scenarios.push_back(workload::ScenarioSpec::parse(trim_ws(item)));
      }
    } else if (key == "seeds") {
      spec.seeds.clear();
      parse_seed_items(value, &spec.seeds);
    } else if (key == "nodes") {
      spec.nodes.clear();
      for (std::string_view item : split(value, ',')) {
        spec.nodes.push_back(parse_positive_int(trim_ws(item), key));
      }
    } else if (key == "cores") {
      spec.cores.clear();
      for (std::string_view item : split(value, ',')) {
        spec.cores.push_back(parse_positive_int(trim_ws(item), key));
      }
    } else if (key == "memory-mb") {
      spec.memories_mb.clear();
      for (std::string_view item : split(value, ',')) {
        spec.memories_mb.push_back(parse_positive_double(trim_ws(item), key));
      }
    } else if (key == "clusters") {
      spec.clusters.clear();
      for (std::string_view item : split(value, ',')) {
        // Items arrive in the ClusterSpec compact form ('+'/'|'), since ','
        // and ';' are grid separators.
        spec.clusters.push_back(cluster::ClusterSpec::parse(trim_ws(item)));
      }
    } else if (key == "autoscalers") {
      spec.autoscalers.clear();
      for (std::string_view item : split(value, ',')) {
        spec.autoscalers.push_back(
            cluster::AutoscalerSpec::parse(trim_ws(item)));
      }
    } else if (key == "faults") {
      spec.faults.clear();
      for (std::string_view item : split(value, ',')) {
        // Items arrive '+'-joined ("crash-restart?mtbf-s=120+flap"); "none"
        // parses to the empty (fault-free) regime.
        spec.faults.push_back(cluster::parse_fault_list(trim_ws(item)));
      }
    } else if (key == "workflows") {
      spec.workflows.clear();
      for (std::string_view item : split(value, ',')) {
        // Items use '+' between dag edges ("dag?edges=a>b+a>c"); "none" is
        // the independent-calls baseline cell.
        spec.workflows.push_back(workload::WorkflowSpec::parse(trim_ws(item)));
      }
    } else if (key.rfind("override:", 0) == 0) {
      const std::string name = std::string(trim_ws(key).substr(9));
      WHISK_CHECK(!name.empty(), "campaign override axis has no name");
      std::vector<double> values;
      for (std::string_view item : split(value, ',')) {
        double v = 0.0;
        WHISK_CHECK(util::parse_finite_double(trim_ws(item), &v),
                    ("campaign axis \"" + key + "\": \"" + std::string(item) +
                     "\" is not a number")
                        .c_str());
        values.push_back(v);
      }
      spec.overrides.emplace_back(name, std::move(values));
    } else {
      WHISK_CHECK(false, ("unknown campaign axis \"" + key +
                          "\"; valid axes: " + kAxisNames)
                             .c_str());
    }
  }
  return spec.normalized();
}

std::string CampaignSpec::to_string() const {
  std::string out = "schedulers=";
  out += join_items(schedulers,
                    [](const SchedulerSpec& s) { return s.to_string(); });
  out += "; scenarios=";
  out += join_items(scenarios, [](const workload::ScenarioSpec& s) {
    return s.to_string();
  });
  out += "; seeds=" + seeds_to_string(seeds);
  out += "; nodes=" + join_items(nodes, [](int n) {
    return std::to_string(n);
  });
  out += "; cores=" + join_items(cores, [](int n) {
    return std::to_string(n);
  });
  out += "; memory-mb=" +
         join_items(memories_mb, [](double m) { return util::fmt_g(m); });
  if (cluster_mode()) {
    out += "; clusters=" + join_items(clusters, [](const auto& c) {
      return c.to_compact_string();
    });
  }
  if (autoscaler_mode()) {
    out += "; autoscalers=" + join_items(autoscalers, [](const auto& a) {
      return a.to_string();
    });
  }
  if (fault_mode()) {
    out += "; faults=" + join_items(faults, [](const auto& f) {
      return cluster::fault_list_to_string(f, '+');
    });
  }
  if (workflow_mode()) {
    out += "; workflows=" + join_items(workflows, [](const auto& w) {
      return w.to_string();
    });
  }
  for (const auto& [name, values] : overrides) {
    out += "; override:" + name + "=" +
           join_items(values, [](double v) { return util::fmt_g(v); });
  }
  return out;
}

CampaignSpec CampaignSpec::normalized() const {
  CampaignSpec out = *this;
  WHISK_CHECK(!out.schedulers.empty(), "campaign has no schedulers");
  WHISK_CHECK(!out.scenarios.empty(), "campaign has no scenarios");
  WHISK_CHECK(!out.seeds.empty(), "campaign has no seeds");
  WHISK_CHECK(!out.nodes.empty(), "campaign has no node counts");
  WHISK_CHECK(!out.cores.empty(), "campaign has no core counts");
  WHISK_CHECK(!out.memories_mb.empty(), "campaign has no memory sizes");
  WHISK_CHECK(!out.clusters.empty(), "campaign has no cluster specs");
  WHISK_CHECK(!out.autoscalers.empty(), "campaign has no autoscaler specs");
  WHISK_CHECK(!out.faults.empty(), "campaign has no fault regimes");
  WHISK_CHECK(!out.workflows.empty(), "campaign has no workflow shapes");
  for (auto& s : out.schedulers) s = s.normalized();
  for (auto& s : out.scenarios) {
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
  for (auto& c : out.clusters) c = c.normalized();
  for (auto& a : out.autoscalers) a = a.normalized();
  for (auto& regime : out.faults) {
    for (auto& f : regime) f = f.normalized();
  }
  for (auto& w : out.workflows) w = w.normalized();
  if (out.cluster_mode()) {
    WHISK_CHECK(out.nodes.size() == 1 && out.nodes[0] == 1,
                "campaign sets both a clusters axis and a nodes axis; the "
                "cluster specs already size the fleet — drop nodes=");
  }
  if (out.autoscaler_mode()) {
    // The axis owns the autoscaling dimension; a cluster item carrying its
    // own autoscaler= section would silently shadow (or be shadowed by)
    // the axis value for some cells.
    for (const auto& c : out.clusters) {
      WHISK_CHECK(!c.autoscaler.enabled(),
                  ("campaign sets an autoscalers axis, but cluster \"" +
                   c.to_compact_string() +
                   "\" carries its own autoscaler= section; set it in one "
                   "place")
                      .c_str());
    }
  }
  if (out.fault_mode()) {
    // Same ownership contract as the autoscaler axis: a cluster item
    // carrying its own faults= section would shadow the axis value.
    for (const auto& c : out.clusters) {
      WHISK_CHECK(c.faults.empty(),
                  ("campaign sets a faults axis, but cluster \"" +
                   c.to_compact_string() +
                   "\" carries its own faults= section; set them in one "
                   "place")
                      .c_str());
    }
  }
  for (int n : out.nodes) WHISK_CHECK(n > 0, "nodes must be positive");
  for (int n : out.cores) WHISK_CHECK(n > 0, "cores must be positive");
  for (double m : out.memories_mb) {
    WHISK_CHECK(m > 0.0, "memory-mb must be positive");
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
  return clusters.size() > 1 ||
         (!clusters.empty() && clusters[0] != cluster::ClusterSpec{});
}

bool CampaignSpec::autoscaler_mode() const {
  return autoscalers.size() > 1 ||
         (!autoscalers.empty() && autoscalers[0].enabled());
}

bool CampaignSpec::fault_mode() const {
  return faults.size() > 1 || (!faults.empty() && !faults[0].empty());
}

bool CampaignSpec::workflow_mode() const {
  return workflows.size() > 1 ||
         (!workflows.empty() && workflows[0].enabled());
}

std::size_t CampaignSpec::size() const {
  std::size_t total = schedulers.size() * scenarios.size() * nodes.size() *
                      cores.size() * memories_mb.size() * clusters.size() *
                      autoscalers.size() * faults.size() * workflows.size() *
                      seeds.size();
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
  c.workflow_i = rem % workflows.size();
  rem /= workflows.size();
  c.faults_i = rem % faults.size();
  rem /= faults.size();
  c.autoscaler_i = rem % autoscalers.size();
  rem /= autoscalers.size();
  c.cluster_i = rem % clusters.size();
  rem /= clusters.size();
  c.memory_i = rem % memories_mb.size();
  rem /= memories_mb.size();
  c.cores_i = rem % cores.size();
  rem /= cores.size();
  c.nodes_i = rem % nodes.size();
  rem /= nodes.size();
  c.scenario_i = rem % scenarios.size();
  rem /= scenarios.size();
  c.scheduler_i = rem % schedulers.size();
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

std::size_t CampaignSpec::group_index(
    std::size_t scheduler_i, std::size_t scenario_i, std::size_t nodes_i,
    std::size_t cores_i, std::size_t memory_i, std::size_t cluster_i,
    std::size_t autoscaler_i, std::size_t faults_i, std::size_t workflow_i,
    const std::vector<std::size_t>& override_i) const {
  WHISK_CHECK(scheduler_i < schedulers.size(),
              "group_index: scheduler coordinate out of range");
  WHISK_CHECK(scenario_i < scenarios.size(),
              "group_index: scenario coordinate out of range");
  WHISK_CHECK(nodes_i < nodes.size(),
              "group_index: nodes coordinate out of range");
  WHISK_CHECK(cores_i < cores.size(),
              "group_index: cores coordinate out of range");
  WHISK_CHECK(memory_i < memories_mb.size(),
              "group_index: memory coordinate out of range");
  WHISK_CHECK(cluster_i < clusters.size(),
              "group_index: cluster coordinate out of range");
  WHISK_CHECK(autoscaler_i < autoscalers.size(),
              "group_index: autoscaler coordinate out of range");
  WHISK_CHECK(faults_i < faults.size(),
              "group_index: faults coordinate out of range");
  WHISK_CHECK(workflow_i < workflows.size(),
              "group_index: workflow coordinate out of range");
  WHISK_CHECK(override_i.empty() || override_i.size() == overrides.size(),
              "group_index: give one coordinate per override axis (or none)");
  std::size_t index = scheduler_i;
  index = index * scenarios.size() + scenario_i;
  index = index * nodes.size() + nodes_i;
  index = index * cores.size() + cores_i;
  index = index * memories_mb.size() + memory_i;
  index = index * clusters.size() + cluster_i;
  index = index * autoscalers.size() + autoscaler_i;
  index = index * faults.size() + faults_i;
  index = index * workflows.size() + workflow_i;
  for (std::size_t k = 0; k < overrides.size(); ++k) {
    const std::size_t coord = override_i.empty() ? 0 : override_i[k];
    WHISK_CHECK(coord < overrides[k].second.size(),
                "group_index: override coordinate out of range");
    index = index * overrides[k].second.size() + coord;
  }
  return index;
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
  std::vector<std::string> parts;
  if (schedulers.size() > 1) {
    parts.push_back(schedulers[cell.scheduler_i].to_string());
  }
  if (scenarios.size() > 1) {
    parts.push_back(scenarios[cell.scenario_i].to_string());
  }
  if (nodes.size() > 1) {
    parts.push_back("nodes=" + std::to_string(nodes[cell.nodes_i]));
  }
  if (cores.size() > 1) {
    parts.push_back("cores=" + std::to_string(cores[cell.cores_i]));
  }
  if (memories_mb.size() > 1) {
    parts.push_back("mem=" + util::fmt_g(memories_mb[cell.memory_i]) + "MiB");
  }
  if (clusters.size() > 1) {
    parts.push_back(clusters[cell.cluster_i].to_compact_string());
  }
  if (autoscalers.size() > 1) {
    parts.push_back("autoscaler=" +
                    autoscalers[cell.autoscaler_i].to_string());
  }
  if (faults.size() > 1) {
    parts.push_back("faults=" +
                    cluster::fault_list_to_string(faults[cell.faults_i], '+'));
  }
  if (workflows.size() > 1) {
    parts.push_back("workflow=" + workflows[cell.workflow_i].to_string());
  }
  for (std::size_t k = 0; k < overrides.size(); ++k) {
    if (overrides[k].second.size() > 1) {
      parts.push_back(overrides[k].first + "=" +
                      util::fmt_g(overrides[k].second[cell.override_i[k]]));
    }
  }
  if (with_seed && seeds.size() > 1) {
    parts.push_back("seed=" + std::to_string(seeds[cell.seed_i]));
  }
  if (parts.empty()) parts.push_back(schedulers[cell.scheduler_i].to_string());
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += ' ';
    out += p;
  }
  return out;
}

}  // namespace whisk::experiments
