// whisk_sweep — run a declarative campaign grid from the command line:
// grid in, progress out, per-cell and aggregated tables/CSV/JSONL out.
//
//   whisk_sweep "schedulers=baseline/fifo,ours/sept;
//                scenarios=uniform?intensity=30,uniform?intensity=60;
//                seeds=0..4" --threads 4 --cells-csv cells.csv
//
// Output is byte-identical for any --threads value (campaign determinism
// contract): cells are seeded from their grid coordinates alone and file
// sinks consume them in cell-index order.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/autoscaler.h"
#include "cluster/balancer_registry.h"
#include "cluster/cluster_spec.h"
#include "cluster/fault.h"
#include "cluster/resilience.h"
#include "container/keep_alive.h"
#include "core/policy_registry.h"
#include "experiments/campaign.h"
#include "experiments/distributed.h"
#include "metrics/sink.h"
#include "node/invoker_registry.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/scenario_registry.h"
#include "workload/workflow.h"

using namespace whisk;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s \"<grid>\" [options]\n"
      "\n"
      "grid axes (semicolon-separated `axis=item,item,...`):\n"
      "  %s\n"
      "examples:\n"
      "  schedulers=invoker[/policy[/balancer]],...\n"
      "  scenarios=name[?key=value&...],...\n"
      "  seeds=0..4 | seeds=0,1,7      nodes=1,2   cores=10,20\n"
      "  memory-mb=2048,32768          override:<knob>=v1,v2\n"
      "  clusters=node:4,big:2?cores=16+small:4|keep-alive=ttl?idle-s=300\n"
      "    (ClusterSpec compact form: '+' for list ',', '|' for section "
      "';')\n"
      "  autoscalers=none,target-util?low=0.3&high=0.85,queue-depth\n"
      "    (closed-loop scaling, crossed with every deployment)\n"
      "  faults=none,crash-restart?mtbf-s=120+slow-node?factor=4\n"
      "    (fault regimes, '+'-joined FaultSpec lists; pair with a\n"
      "     resilience= section in the clusters items)\n"
      "  workflows=none,chain?stages=4,fanout?width=8&join=all\n"
      "    (composite-function DAGs rooted at every scenario call;\n"
      "     dag edge lists use '+': dag?edges=a>b+a>c)\n"
      "\n"
      "options:\n"
      "  --threads N        worker threads (default: all cores)\n"
      "  --cells-csv F      per-cell summary CSV\n"
      "  --cells-jsonl F    per-cell summary JSON Lines\n"
      "  --records-csv F    full per-call record CSV (streamed)\n"
      "  --records-jsonl F  full per-call record JSON Lines (streamed)\n"
      "  --no-samples       bounded memory: streaming summaries only\n"
      "  --reservoir N      quantile reservoir capacity (default 4096)\n"
      "  --quiet            no progress, no per-cell table\n"
      "  --list             print every registered component with its\n"
      "                     parameters and exit\n"
      "\n"
      "distributed campaigns (merged output is byte-identical to a\n"
      "single-process run at any worker count):\n"
      "  --workers N        shard the grid across N worker processes,\n"
      "                     merge deterministically (crashed shards are\n"
      "                     re-run; workers use --threads each, default 1)\n"
      "  --shard i/n        run only shard i of n (group-aligned slice;\n"
      "                     global cell indices/seeds, CSV keeps a header)\n"
      "  --merge OUT F...   merge per-shard --cells-csv/--cells-jsonl\n"
      "                     partials (shard order) into OUT and exit; an\n"
      "                     empty part is JSONL, all parts one format\n"
      "  --verbose          in --workers runs: forward worker stderr\n",
      argv0, experiments::CampaignSpec::axis_names().c_str());
  return 2;
}

void print_names(const char* heading, const std::vector<std::string>& names) {
  std::printf("%s:\n", heading);
  for (const auto& name : names) std::printf("  %s\n", name.c_str());
}

// The one ParamDecl table printer every section shares.
void print_params(const std::vector<util::ParamDecl>& params,
                  const char* indent) {
  for (const auto& param : params) {
    std::printf("%s%s", indent, param.name.c_str());
    if (!param.default_value.empty()) {
      std::printf(" (default %s)", param.default_value.c_str());
    }
    std::printf(": %s\n", param.help.c_str());
  }
}

// Every registered component of one spec kind: name, help line (where the
// kind has one), declared parameters, then whatever `details` adds.
template <typename Spec, typename Details>
void print_components(const char* heading, Details&& details) {
  std::printf("%s:\n", heading);
  for (const auto& name : Spec::registry().names()) {
    const auto& probe = Spec::probe(name);
    std::printf("  %s", name.c_str());
    if constexpr (requires { probe.component->help(); }) {
      std::printf(": %s", probe.component->help().c_str());
    }
    std::printf("\n");
    print_params(probe.params, "    ");
    details(name, *probe.component);
  }
}

constexpr auto no_details = [](const std::string&, const auto&) {};

// "s0 -> s1 s2 [join 2/2]" per stage: enough to eyeball the shape a spec
// expands to without running anything.
void print_dag(const workload::WorkflowDag& dag) {
  std::printf("    default DAG (%zu stages):\n", dag.size());
  for (const auto& stage : dag.stages) {
    std::printf("      %s", stage.label.c_str());
    if (stage.function_offset != 0) {
      std::printf(" (fn+%d)", stage.function_offset);
    }
    if (stage.preds > 1) {
      std::printf(" [join %d/%d]", stage.join_k, stage.preds);
    }
    if (!stage.successors.empty()) {
      std::printf(" ->");
      for (int succ : stage.successors) {
        std::printf(" %s",
                    dag.stages[static_cast<std::size_t>(succ)].label.c_str());
      }
    }
    std::printf("\n");
  }
}

// The desired node count of a fresh controller across load levels on a
// 4-node, 10-core group at default parameters. History-driven controllers
// are skipped: their answer depends on the arrival record, not a snapshot.
void print_decision_table(const std::string& name,
                          const cluster::Autoscaler& probe) {
  if (probe.history_window_s() > 0.0) {
    std::printf(
        "    decisions: (skipped: scales from the %g s arrival history, not "
        "a single snapshot)\n",
        probe.history_window_s());
    return;
  }
  constexpr std::size_t kNodes = 4;
  constexpr int kCores = 10;
  const auto controller = cluster::make_autoscaler(cluster::AutoscalerSpec{name, {}});
  cluster::GroupObservation group;
  group.active = kNodes;
  group.cores_per_node = kCores;
  cluster::ClusterObservation obs;
  obs.num_functions = 1;
  const double capacity = static_cast<double>(kNodes * kCores);
  std::printf("    decisions (%zu nodes x %d cores, defaults):\n", kNodes,
              kCores);
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0}) {
    group.executing =
        static_cast<std::size_t>(std::min(capacity, frac * capacity));
    group.queued =
        static_cast<std::size_t>(frac > 1.0 ? (frac - 1.0) * capacity : 0.0);
    const std::size_t desired = controller->desired_nodes(group, obs);
    std::printf("      load %5.1f (util %.2f, queue %3zu) -> %zu node%s%s\n",
                group.load(), group.utilization(), group.queued, desired,
                desired == 1 ? "" : "s",
                desired > kNodes   ? "  (scale up)"
                : desired < kNodes ? "  (scale down)"
                                   : "");
  }
}

// One-stop discoverability: every name each registry will accept in a
// grid, with the declared parameters of every spec kind.
int list_registries() {
  print_names("invokers (schedulers=<invoker>/...)",
              node::InvokerRegistry::instance().names());
  print_names("policies (schedulers=.../<policy>/...)",
              core::PolicyRegistry::instance().names());
  print_names("balancers (schedulers=.../.../<balancer>)",
              cluster::BalancerRegistry::instance().names());
  print_components<workload::ScenarioSpec>("scenarios (scenarios=<name>?...)",
                                           no_details);
  std::printf("node-group parameters (clusters=<group>:<count>?k=v&...):\n");
  print_params(cluster::node_group_params(), "  ");
  print_components<container::KeepAliveSpec>(
      "keep-alive policies (clusters=...|keep-alive=<name>?...)", no_details);
  print_components<cluster::AutoscalerSpec>(
      "autoscalers (autoscalers=<name>?...; \"none\" = off)",
      print_decision_table);
  print_components<cluster::FaultSpec>(
      "faults (faults=<name>?...+...; \"none\" = fault-free)",
      [](const std::string&, const cluster::FaultProcess& process) {
        if (process.disruptive()) {
          std::printf("    disruptive: fails nodes (in-flight calls "
                      "re-submit)\n");
        }
        if (process.drops_completions()) {
          std::printf("    drops completions: requires "
                      "resilience=timeout-s>0 or the lost call would hang "
                      "the run\n");
        }
      });
  std::printf("resilience knobs (clusters=...|resilience=k=v&...):\n");
  print_params(cluster::resilience_params(), "  ");
  print_components<workload::WorkflowSpec>(
      "workflows (workflows=<name>?...; \"none\" = independent calls)",
      [](const std::string& name, const workload::WorkflowDef&) {
        print_dag(workload::make_workflow_dag(workload::WorkflowSpec{name, {}}));
      });
  return 0;
}

// Offline merge of per-shard partial files written by separate
// `--shard i/n --cells-csv/--cells-jsonl` runs (e.g. shards run on
// different machines), listed in shard order.
int merge_partials(const std::string& out_path,
                   const std::vector<std::string>& inputs) {
  if (inputs.empty()) {
    std::fprintf(stderr, "--merge needs at least one input file\n");
    return 2;
  }
  std::vector<experiments::CellsPart> parts;
  for (const std::string& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    parts.push_back({path, buf.str()});
  }
  const experiments::CellsMerge merge = experiments::merge_cells(parts);
  if (!merge.diagnostic.empty()) {
    std::fprintf(stderr, "--merge: %s\n", merge.diagnostic.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!(out << merge.merged)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

// The aggregated per-group table (seeds pooled) both run paths print.
void print_group_table(const experiments::CampaignSpec& spec,
                       const std::vector<experiments::GroupSummary>& groups) {
  util::Table table({"group", "seeds", "calls", "avg R", "p50 R", "p95 R",
                     "p99 R", "avg S", "p50 S", "max c(i)", "cold"});
  const std::size_t per = spec.seeds_per_group();
  for (const auto& g : groups) {
    const util::Summary& r = g.response;
    const util::Summary& s = g.stretch;
    table.add_row({spec.label(spec.coordinates(g.group * per),
                              /*with_seed=*/false),
                   std::to_string(per), std::to_string(r.count),
                   util::fmt(r.mean), util::fmt(r.p50), util::fmt(r.p95),
                   util::fmt(r.p99), util::fmt(s.mean, 1), util::fmt(s.p50, 1),
                   util::fmt(g.max_completion), std::to_string(g.cold_starts)});
  }
  std::printf("%s", table.to_string().c_str());
}

// Write the cells files that were asked for (an empty path is skipped).
// False, after a message, when one cannot be written.
bool write_cells_files(const std::string& csv_path, const std::string& csv,
                       const std::string& jsonl_path, const std::string& jsonl,
                       bool quiet) {
  const std::pair<const std::string&, const std::string&> files[] = {
      {csv_path, csv}, {jsonl_path, jsonl}};
  for (const auto& [path, data] : files) {
    if (path.empty()) continue;
    std::ofstream out(path, std::ios::binary);
    if (!(out << data)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    if (!quiet) std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string cells_csv_path;
  std::string cells_jsonl_path;
  std::string records_csv_path;
  std::string records_jsonl_path;
  std::string shard_selector;
  std::string merge_out;
  int workers = 0;  // 0 = single-process (no distribution)
  bool verbose = false;
  bool threads_given = false;
  experiments::CampaignOptions opts;
  // CLI default: all cores (the library default stays 1 thread). Output is
  // byte-identical for any thread count, so parallelism is free here.
  opts.threads = 0;
  bool quiet = false;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      std::exit(usage(argv[0]));
    }
    return argv[++i];
  };
  // Strict whole number (atoi would turn "--threads four" into 0 silently).
  auto need_count = [&](int& i) -> int {
    const char* flag = argv[i];
    const char* text = need_value(i);
    unsigned long long value = 0;
    if (!util::parse_whole_number(text, &value) || value > 1000000) {
      std::fprintf(stderr, "%s needs a whole number, got \"%s\"\n", flag,
                   text);
      std::exit(usage(argv[0]));
    }
    return static_cast<int>(value);
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0) {
      opts.threads = need_count(i);
      threads_given = true;
    } else if (std::strcmp(arg, "--workers") == 0) {
      workers = need_count(i);
      if (workers == 0) {
        std::fprintf(stderr, "--workers needs a value > 0\n");
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--shard") == 0) {
      shard_selector = need_value(i);
    } else if (std::strcmp(arg, "--merge") == 0) {
      merge_out = need_value(i);
    } else if (std::strcmp(arg, "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(arg, "--cells-csv") == 0) {
      cells_csv_path = need_value(i);
    } else if (std::strcmp(arg, "--cells-jsonl") == 0) {
      cells_jsonl_path = need_value(i);
    } else if (std::strcmp(arg, "--records-csv") == 0) {
      records_csv_path = need_value(i);
    } else if (std::strcmp(arg, "--records-jsonl") == 0) {
      records_jsonl_path = need_value(i);
    } else if (std::strcmp(arg, "--no-samples") == 0) {
      opts.retain_samples = false;
    } else if (std::strcmp(arg, "--reservoir") == 0) {
      const int cap = need_count(i);
      if (cap == 0) {
        std::fprintf(stderr, "--reservoir needs a value > 0\n");
        return usage(argv[0]);
      }
      opts.reservoir_capacity = static_cast<std::size_t>(cap);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--list") == 0) {
      return list_registries();
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      return usage(argv[0]);
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg);
      return usage(argv[0]);
    } else {
      positional.emplace_back(arg);
    }
  }

  // Offline merge mode: positionals are the per-shard partial files.
  if (!merge_out.empty()) return merge_partials(merge_out, positional);

  if (positional.size() > 1) {
    std::fprintf(stderr, "more than one grid argument\n");
    return usage(argv[0]);
  }
  if (positional.empty()) return usage(argv[0]);

  if (workers > 0 && !shard_selector.empty()) {
    std::fprintf(stderr, "--workers and --shard are mutually exclusive "
                         "(the driver assigns shards)\n");
    return usage(argv[0]);
  }
  if (workers > 0 &&
      (!records_csv_path.empty() || !records_jsonl_path.empty())) {
    std::fprintf(stderr, "--records-csv/--records-jsonl do not combine with "
                         "--workers (per-call record streaming is "
                         "single-process)\n");
    return usage(argv[0]);
  }

  const auto cat = workload::sebs_catalog();
  const auto spec = experiments::CampaignSpec::parse(positional.front());

  // Driver mode: shard the grid across worker processes forked from this
  // one and merge their output deterministically.
  if (workers > 0) {
    experiments::DistributedOptions dopts;
    dopts.workers = workers;
    dopts.worker_threads = threads_given ? opts.threads : 1;
    dopts.retain_samples = opts.retain_samples;
    dopts.reservoir_capacity = opts.reservoir_capacity;
    dopts.verbose = verbose;

    if (!quiet) {
      std::fprintf(stderr, "campaign: %s\n", spec.to_string().c_str());
      std::fprintf(stderr,
                   "cells: %zu (%zu groups x %zu seeds), workers: %d x %d "
                   "threads\n",
                   spec.size(), spec.group_count(), spec.seeds_per_group(),
                   workers, dopts.worker_threads);
    }
    const auto result = experiments::run_distributed(spec, cat, dopts);
    for (const auto& shard : result.shards) {
      if (shard.attempts > 1 && !quiet) {
        std::fprintf(stderr, "shard %s needed %d attempts\n",
                     shard.range.selector().c_str(), shard.attempts);
      }
    }

    print_group_table(result.spec, result.groups);
    if (!quiet) {
      std::fprintf(stderr, "peak worker rss: %ld kb\n",
                   result.peak_worker_rss_kb);
    }
    return write_cells_files(cells_csv_path, result.cells_csv,
                             cells_jsonl_path, result.cells_jsonl, quiet)
               ? 0
               : 1;
  }

  // Single-process path, optionally restricted to one shard of the grid.
  std::string shard_prefix;
  if (!shard_selector.empty()) {
    const auto [shard_i, shard_n] =
        experiments::ShardRange::parse_selector(shard_selector);
    opts.shard = spec.shard(shard_i, shard_n);
    shard_prefix = "[shard " + opts.shard->selector() + "] ";
  }
  const std::size_t total =
      opts.shard ? opts.shard->cells() : spec.size();
  const int threads = opts.threads == 0
                          ? util::ThreadPool::hardware_threads()
                          : opts.threads;
  if (!quiet) {
    std::fprintf(stderr, "%scampaign: %s\n", shard_prefix.c_str(),
                 spec.to_string().c_str());
    // The *effective* worker count (after the 0 = all-cores default), so a
    // log always records how the grid actually ran.
    std::fprintf(stderr,
                 "%scells: %zu of %zu (%zu groups x %zu seeds), threads: %d "
                 "of %d hardware\n",
                 shard_prefix.c_str(), total, spec.size(), spec.group_count(),
                 spec.seeds_per_group(), threads,
                 util::ThreadPool::hardware_threads());
  }

  // Per-record streaming sinks, fed in cell order while the campaign runs.
  metrics::MetricsPipeline pipeline;
  std::ofstream records_csv;
  std::ofstream records_jsonl;
  if (!records_csv_path.empty()) {
    records_csv.open(records_csv_path);
    if (!records_csv) {
      std::fprintf(stderr, "cannot write %s\n", records_csv_path.c_str());
      return 1;
    }
    pipeline.emplace<metrics::CsvSink>(records_csv, cat);
  }
  if (!records_jsonl_path.empty()) {
    records_jsonl.open(records_jsonl_path);
    if (!records_jsonl) {
      std::fprintf(stderr, "cannot write %s\n", records_jsonl_path.c_str());
      return 1;
    }
    pipeline.emplace<metrics::JsonlSink>(records_jsonl, cat);
  }
  if (pipeline.size() > 0) opts.pipeline = &pipeline;

  if (!quiet) {
    const std::size_t step = total <= 100 ? 1 : total / 100;
    // Sharded runs print whole lines with the shard id up front (several
    // shards may share one terminal); plain runs keep the \r ticker.
    opts.progress = [step, total, shard_prefix](std::size_t done,
                                                std::size_t all) {
      if (done % step == 0 || done == all) {
        if (shard_prefix.empty()) {
          std::fprintf(stderr, "\r[%zu/%zu] cells done", done, total);
          if (done == all) std::fprintf(stderr, "\n");
        } else {
          std::fprintf(stderr, "%s%zu/%zu cells done\n",
                       shard_prefix.c_str(), done, total);
        }
      }
    };
  }

  const auto result = experiments::run_campaign(spec, cat, opts);

  // Per-cell table (small grids only; the CSV/JSONL carry the full detail).
  if (!quiet && total <= 64) {
    util::Table table({"cell", "label", "calls", "avg R", "p50 R", "p95 R",
                       "avg S", "max c(i)", "cold"});
    for (const auto& cell : result.cells) {
      const auto r = cell.response_summary();
      const auto s = cell.stretch_summary();
      table.add_row({std::to_string(cell.index),
                     spec.label(spec.coordinates(cell.index)),
                     std::to_string(cell.calls), util::fmt(r.mean),
                     util::fmt(r.p50), util::fmt(r.p95), util::fmt(s.mean, 1),
                     util::fmt(cell.max_completion),
                     std::to_string(cell.stats.cold_starts)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::vector<experiments::GroupSummary> groups;
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    groups.push_back(result.group_summary(g));
  }
  print_group_table(result.spec, groups);
  return write_cells_files(
             cells_csv_path,
             cells_csv_path.empty() ? "" : experiments::cells_csv(result),
             cells_jsonl_path,
             cells_jsonl_path.empty() ? "" : experiments::cells_jsonl(result),
             quiet)
             ? 0
             : 1;
}
