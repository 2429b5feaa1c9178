#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster_spec.h"
#include "experiments/experiment_spec.h"
#include "experiments/scheduler_spec.h"
#include "metrics/sink.h"
#include "workload/scenario_spec.h"

namespace whisk::experiments {

// One cell of an expanded campaign grid: the fully materialized
// ExperimentSpec plus its coordinates along every axis. Every member has a
// default, so a partial cell such as `{.nodes_i = 1}` names a group.
struct CampaignCell {
  std::size_t index = 0;
  std::size_t scheduler_i = 0;
  std::size_t scenario_i = 0;
  std::size_t nodes_i = 0;
  std::size_t cores_i = 0;
  std::size_t memory_i = 0;
  std::size_t cluster_i = 0;
  std::size_t autoscaler_i = 0;
  std::size_t faults_i = 0;
  std::size_t workflow_i = 0;
  std::vector<std::size_t> override_i = {};  // one per override axis
  std::size_t seed_i = 0;
  ExperimentSpec spec = {};
};

// A contiguous, group-aligned slice of a campaign's expanded cell index
// space — the unit of distribution for multi-process campaigns. Shards are
// aligned to group boundaries (a group = every non-seed coordinate fixed),
// so one group's seed-ordered cells never straddle two workers and group
// aggregation needs no cross-shard reconciliation. Cell indices, group
// indices and per-cell seeds are the *global* ones: they derive from grid
// coordinates alone, so a shard run is byte-identical to the same slice of
// an unsharded run.
//
// A shard renders as the pair (grid string, "i/n" selector): parsing the
// grid back and calling shard(i, n) reproduces the identical range, which
// is how `whisk_sweep "<grid>" --shard i/n` round-trips.
struct ShardRange {
  std::size_t index = 0;  // which shard (0-based)
  std::size_t count = 1;  // out of how many
  std::size_t begin_group = 0;  // [begin_group, end_group)
  std::size_t end_group = 0;
  std::size_t seeds_per_group = 1;

  [[nodiscard]] std::size_t groups() const { return end_group - begin_group; }
  [[nodiscard]] std::size_t begin_cell() const {
    return begin_group * seeds_per_group;
  }
  [[nodiscard]] std::size_t end_cell() const {
    return end_group * seeds_per_group;
  }
  [[nodiscard]] std::size_t cells() const {
    return groups() * seeds_per_group;
  }
  [[nodiscard]] bool empty() const { return begin_group == end_group; }

  // Partition this shard's group range into `m` contiguous sub-shards with
  // the same balanced formula as CampaignSpec::shard, so sharding composes:
  // a worker handed shard i/n can fan its slice out again, and the
  // concatenation of every sub-shard is exactly the parent.
  [[nodiscard]] ShardRange subshard(std::size_t j, std::size_t m) const;

  // The CLI selector: "i/n".
  [[nodiscard]] std::string selector() const;
  // Parse "i/n" (whole numbers, i < n, n > 0); aborts with a diagnostic
  // otherwise. Returns {index, count} — feed it to CampaignSpec::shard.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> parse_selector(
      std::string_view text);

  friend bool operator==(const ShardRange& a, const ShardRange& b) {
    return a.index == b.index && a.count == b.count &&
           a.begin_group == b.begin_group && a.end_group == b.end_group &&
           a.seeds_per_group == b.seeds_per_group;
  }
  friend bool operator!=(const ShardRange& a, const ShardRange& b) {
    return !(a == b);
  }
};

// A declarative sweep grid — the campaign-level mirror of SchedulerSpec and
// ScenarioSpec. The paper's result grids (schedulers x scenarios x 5 seeds,
// with deployment axes where a figure sweeps them) are one CampaignSpec;
// run_campaign executes the cross product.
//
//   auto grid = CampaignSpec::parse(
//       "schedulers=baseline/fifo,ours/sept; "
//       "scenarios=uniform?intensity=30,uniform?intensity=60; "
//       "seeds=0..4; cores=10");
//   grid.size()  -> 20
//
// Grammar: semicolon-separated `axis=item,item,...` entries. Axes:
// schedulers, scenarios, seeds, nodes, cores, memory-mb (alias memory_mb),
// clusters, autoscalers, faults, workflows, and any number of
// `override:<name>` ablation axes (names validated against
// ExperimentSpec::override_names()). `seeds` accepts inclusive ranges
// (`0..4`) alongside single values. Axis names are case-insensitive;
// omitted axes keep their defaults (seeds default to the paper's 0..4).
// Items must not contain `,` or `;`, so list-valued scenario parameters
// use '+' ("poisson?mix=weighted&weights=3+1+1+1+1+1+1+1+1+1+1");
// normalized() rejects a scenario value holding either separator, even on
// a struct built by hand. `clusters` items use the ClusterSpec compact form
// ('+' between groups/events, '|' between sections):
//
//   clusters=node:4,big:2?cores=16+small:4|keep-alive=ttl?idle-s=300
//
// sweeps a homogeneous 4-node fleet against a heterogeneous TTL one. The
// clusters axis supersedes `nodes` (setting both non-default aborts);
// cores/memory-mb still sweep the *base* NodeParams each group inherits.
// `autoscalers` (alias `autoscaler`) sweeps closed-loop scaling
// controllers (AutoscalerSpec grammar, "none" included) across every
// deployment — the cost/SLO frontier is a `clusters=` x `autoscalers=`
// grid. An autoscaler axis owns that dimension: cluster items must not
// also carry a non-default autoscaler= section. `faults` (alias `fault`)
// sweeps fault regimes the same way: each item is a '+'-joined FaultSpec
// list ("none" for the fault-free baseline cell), e.g.
//
//   faults=none,crash-restart?mtbf-s=120+slow-node?factor=4
//
// and a faults axis likewise owns the dimension (cluster items must not
// carry faults of their own). An axis or section spelled at its default
// ("autoscalers=none", "faults=none", "workflows=none", "clusters=node:1",
// "node:2|autoscaler=none") means the same as leaving it out: it neither
// conflicts nor renders. `workflows` (alias `workflow`)
// sweeps composite-function DAG shapes (WorkflowSpec grammar, "none" for
// the independent-calls baseline cell):
//
//   workflows=none,chain?stages=4,fanout?width=8&join=all
//
// Workflow items use '+' inside dag edge lists ("dag?edges=a>b+a>c"),
// since ',' separates axis items.
//
// The workload's load knob travels inside the scenario item
// ("uniform?intensity=60"), its only spelling. Likewise a cell's whole
// deployment is one ClusterSpec: deployment() folds the cell's clusters
// (or nodes), autoscalers and faults values into it.
//
// to_string() prints every fixed axis in canonical order (plus the override
// axes sorted by name), so parse(to_string()) round-trips exactly.
//
// Cell expansion order is seed-innermost:
//   scheduler > scenario > nodes > cores > memory > clusters > autoscalers
//   > faults > workflows > overrides > seed
// so the cells of one "group" (every axis fixed except the seed) are
// contiguous and seed-ordered — pooling a group's cells reproduces the
// serial run_repetitions pooling byte for byte. That order, each axis's
// keys and spellings, and the member vector and CampaignCell coordinate it
// owns are declared once, in the kAxes table (campaign_spec.cpp).
struct CampaignSpec {
  std::vector<SchedulerSpec> schedulers = {SchedulerSpec{}};
  std::vector<workload::ScenarioSpec> scenarios = {workload::ScenarioSpec{}};
  std::vector<int> nodes = {1};
  std::vector<int> cores = {10};
  std::vector<double> memories_mb = {32.0 * 1024.0};
  // Deployment axis. In play (cluster_mode()), it sizes the fleet, so the
  // legacy `nodes` axis must stay at its default.
  std::vector<cluster::ClusterSpec> clusters = {cluster::ClusterSpec{}};
  // Closed-loop scaling axis, crossed with the deployments; the default
  // single "none" entry means no autoscaling dimension.
  std::vector<cluster::AutoscalerSpec> autoscalers = {
      cluster::AutoscalerSpec{}};
  // Fault-regime axis, crossed with the deployments; each entry is one
  // faults= list (empty = the fault-free baseline). The default single
  // empty entry means no fault dimension.
  std::vector<std::vector<cluster::FaultSpec>> faults = {{}};
  // Composite-function axis: each entry is one WorkflowSpec ("none" = the
  // independent-calls baseline). The default single "none" entry means no
  // workflow dimension.
  std::vector<workload::WorkflowSpec> workflows = {workload::WorkflowSpec{}};
  // Ablation axes, crossed like every other axis; kept sorted by name.
  std::vector<std::pair<std::string, std::vector<double>>> overrides;
  std::vector<std::uint64_t> seeds = {0, 1, 2, 3, 4};

  [[nodiscard]] static CampaignSpec parse(std::string_view text);
  // Every axis key parse accepts, in to_string order and comma-separated:
  // the fixed axes with seeds among them, then "override:<name>".
  [[nodiscard]] static std::string axis_names();
  [[nodiscard]] std::string to_string() const;

  // Abort (naming the offender and the valid alternatives) if any component
  // is unknown or any axis is empty; returns a copy with schedulers,
  // scenarios and override names canonicalized and override axes sorted.
  [[nodiscard]] CampaignSpec normalized() const;

  // Number of cells: the product of all axis lengths.
  [[nodiscard]] std::size_t size() const;

  // Cells per group (= seeds.size()) and number of groups.
  [[nodiscard]] std::size_t seeds_per_group() const { return seeds.size(); }
  [[nodiscard]] std::size_t group_count() const {
    return size() / seeds.size();
  }

  // Deterministically partition the expanded cell index space into `n`
  // contiguous, group-aligned sub-ranges and return the `i`-th (0-based).
  // Shard i covers groups [i*G/n, (i+1)*G/n) — balanced to within one
  // group, exhaustive and disjoint over i = 0..n-1 for any n (shards beyond
  // the group count come back empty). Everything about the cells inside a
  // shard — indices, group indices, per-cell seeds — is identical to the
  // unsharded expansion.
  [[nodiscard]] ShardRange shard(std::size_t i, std::size_t n) const;

  // Expand cell `index` (0 <= index < size()) deterministically.
  [[nodiscard]] CampaignCell cell(std::size_t index) const;

  // The cell's deployment: its clusters item (or the homogeneous expansion
  // of its nodes value) with the cell's autoscalers and faults values set
  // on it. Not re-validated: cell() hands it to ExperimentSpec::cluster(),
  // which checks the faults x resilience combination.
  [[nodiscard]] cluster::ClusterSpec deployment(const CampaignCell& cell) const;

  // Decode only the axis coordinates of cell `index`, leaving the
  // ExperimentSpec member default-constructed — what the per-row output
  // renderers need, without re-normalizing scheduler/scenario/cluster
  // specs for every rendered row.
  [[nodiscard]] CampaignCell coordinates(std::size_t index) const;

  // Flatten a cell's non-seed coordinates into a group index — the inverse
  // of the expansion order, so callers never hand-roll `sched_i * n +
  // node_i` arithmetic that silently breaks when an axis gains a value.
  // Unset coordinates mean "first value", so a partial cell names a group:
  // `group_index({.cluster_i = c})`. An empty override_i means the first
  // value of every override axis.
  [[nodiscard]] std::size_t group_index(const CampaignCell& at) const;

  // The cell's coordinates as the leading columns of the cells CSV/JSONL
  // and of every record context, in column order: cell, scheduler,
  // scenario, seed, then the other fixed axes. The nodes, cluster,
  // autoscaler and faults columns read the cell's deployment().
  [[nodiscard]] std::vector<metrics::RunContextField> coordinate_fields(
      const CampaignCell& cell) const;

  // True when the axis is in play: more than one entry, or a non-default
  // one (a non-one-node cluster, an autoscaler other than "none", a
  // non-empty fault list, an enabled workflow).
  [[nodiscard]] bool cluster_mode() const;
  [[nodiscard]] bool autoscaler_mode() const;
  [[nodiscard]] bool fault_mode() const;
  [[nodiscard]] bool workflow_mode() const;

  // The paper's seed convention: 0..n-1.
  [[nodiscard]] static std::vector<std::uint64_t> first_seeds(int n);

  // Human-readable cell coordinates: multi-valued axes only, so a grid that
  // sweeps schedulers x seeds labels cells "ours/sept seed=3", not a wall
  // of constant columns. `with_seed=false` names the cell's group.
  [[nodiscard]] std::string label(const CampaignCell& cell,
                                  bool with_seed = true) const;

  friend bool operator==(const CampaignSpec&,
                         const CampaignSpec&) = default;
};

}  // namespace whisk::experiments
