#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "experiments/campaign_spec.h"
#include "metrics/sink.h"
#include "node/invoker.h"
#include "util/stats.h"

namespace whisk::experiments {

// Everything one cell reports — the one result type of run_experiment,
// CellWorkspace::run and run_campaign. Each per-cell metric is declared
// here, filled once in CellWorkspace::run, and rendered into the cells
// CSV/JSONL and the record context from one column table (campaign.cpp);
// adding a metric touches exactly those three places.
//
// Bounded by design inside a campaign: the streaming summaries are
// O(reservoir), and the per-call samples/records are only retained when
// the options ask for them — a 10k-cell campaign with default options never
// holds more than the in-flight cells' records.
struct CellResult {
  std::size_t index = 0;  // global cell index (0 outside a campaign)
  // Terminal records in the cell (ok + shed + dropped = one per call).
  std::size_t calls = 0;
  // Calls that actually completed — the population the response/stretch
  // samples and summaries are drawn from (== calls unless a resilience
  // policy shed or dropped some).
  std::size_t ok_calls = 0;
  double max_completion = 0.0;  // max c(i), seconds
  node::InvokerStats stats;
  // Per node group, in the deployment's group order (one entry for
  // homogeneous cells).
  std::vector<cluster::GroupStats> groups;
  // Extra submissions caused by node failures (a call surviving two
  // failures counts twice; 0 without fail events).
  std::size_t resubmissions = 0;
  // Fleet economics: node-hours metered per member (pro-rated over joins
  // and drains) and the cost at each group's cost-per-hour rate. Static
  // fleets with the default rate report node_hours > 0 but cost_usd 0.
  double node_hours = 0.0;
  double cost_usd = 0.0;
  // Responses above the deployment's `slo=` threshold (0 when no SLO set).
  std::size_t slo_violations = 0;
  // Autoscaler activity: scale-up / scale-down decisions taken (0 without
  // an autoscaler= section).
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  // Robustness telemetry (all 0 on fault-free, resilience-free runs):
  // fault events fired (crashes, flaps, slow windows, lost completions);
  // timeout-driven retries issued, per-call timeouts fired, hedged
  // duplicates whose copy finished first, calls refused at admission
  // (disposition=shed), calls abandoned after the attempt bound
  // (disposition=dropped), and circuit-breaker trips.
  std::size_t faults_injected = 0;
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t hedges_won = 0;
  std::size_t shed_calls = 0;
  std::size_t dropped_calls = 0;
  std::size_t breaker_opens = 0;
  // Node-seconds spent failed (crash to restart), summed over nodes.
  double unavailability_s = 0.0;
  // Successful completions per second of makespan — the paper-adjacent
  // "useful work" rate that shedding/dropping trades latency against.
  double goodput = 0.0;
  // Workflow-level metrics (all 0 on workflow-free runs): instances whose
  // every stage resolved, end-to-end latency p99, mean realized critical
  // path and mean slack (e2e minus critical path — queueing, network and
  // fan-in straggler time).
  std::size_t workflows = 0;
  double wf_e2e_p99 = 0.0;
  double wf_critical_path_s = 0.0;
  double wf_slack_s = 0.0;

  // Populated only when samples are NOT retained (with samples present the
  // exact vectors already answer everything and the streams would be
  // redundant copies); the aggregate_* helpers fold these.
  metrics::StreamingSummary response_stream;
  metrics::StreamingSummary stretch_stream;

  // The cell's response and stretch summaries, computed once by
  // run_campaign on the worker that ran the cell: exact over the samples
  // when they are retained, from the streams otherwise. A CellResult built
  // elsewhere leaves them empty (count != ok_calls).
  util::Summary response;
  util::Summary stretch;

  // Exact per-call samples (R(i) seconds, S(i)) and full records. A
  // campaign keeps them only under retain_samples / retain_records.
  std::vector<double> responses;
  std::vector<double> stretches;
  std::vector<metrics::CallRecord> records;

  // The stored summaries when they cover the cell; otherwise computed on
  // demand: exact when samples were retained, streaming otherwise.
  [[nodiscard]] util::Summary response_summary() const;
  [[nodiscard]] util::Summary stretch_summary() const;
};

struct CampaignOptions {
  int threads = 1;  // 0 = util::ThreadPool::hardware_threads()
  // Keep the per-call response/stretch vectors (exact pooled quantiles for
  // the paper tables). Turn off for huge grids; the streaming summaries
  // remain.
  bool retain_samples = true;
  // Keep the full CallRecords per cell (per-function post-hoc queries).
  bool retain_records = false;
  std::size_t reservoir_capacity = 4096;
  // Run only this group-aligned slice of the grid (default: everything).
  // Must come from shard()/subshard() on the same grid; cell indices,
  // seeds and group indices stay global, so a shard run is byte-identical
  // to the matching slice of an unsharded run — the distributed campaign
  // contract.
  std::optional<ShardRange> shard;
  // Optional per-record sinks. Cells are flushed through the pipeline in
  // cell-index order no matter which thread finished first, so file output
  // is byte-identical for any thread count.
  metrics::MetricsPipeline* pipeline = nullptr;
  // Called after each finished cell with (done, total); serialized, so a
  // progress printer needs no locking of its own.
  std::function<void(std::size_t, std::size_t)> progress;
};

// One group's figures pooled over its seeds, as the paper's Table III
// reports each configuration: a row of the group tables, and what a
// distributed worker ships back for each of its groups.
struct GroupSummary {
  std::size_t group = 0;  // global group index
  std::size_t calls = 0;
  std::size_t ok_calls = 0;
  std::size_t cold_starts = 0;
  double max_completion = 0.0;
  util::Summary response;
  util::Summary stretch;
};

class CampaignResult {
 public:
  CampaignSpec spec;
  // The slice of the grid these cells cover — the whole grid unless the
  // run was sharded. `cells` holds the shard's cells in order; each
  // CellResult::index is the *global* cell index.
  ShardRange shard;
  std::vector<CellResult> cells;

  // A group = all cells sharing every non-seed coordinate; contiguous and
  // seed-ordered by the expansion order contract. Group arguments here are
  // shard-local (0 .. group_count()-1); global_group maps them back to the
  // grid-wide group index.
  [[nodiscard]] std::size_t group_count() const { return shard.groups(); }
  [[nodiscard]] std::size_t global_group(std::size_t g) const {
    return shard.begin_group + g;
  }
  [[nodiscard]] std::span<const CellResult> group(std::size_t g) const;
  [[nodiscard]] std::string group_label(std::size_t g) const;
  // The group's pooled row: util::summarize over pooled_* when every cell
  // kept its samples, aggregate_*(cells).summary() otherwise.
  [[nodiscard]] GroupSummary group_summary(std::size_t g) const;
};

// Execute every cell of the grid — one independent sim::Engine per cell,
// seeded from the cell's seed-axis value only — on util::ThreadPool's
// striped parallel_for, one reusable CellWorkspace per worker. Results are
// byte-identical for any thread count and any schedule:
// cells write to pre-assigned slots, aggregation folds them in index order,
// and pipeline sinks see cells in index order.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const workload::FunctionCatalog& cat,
                                          const CampaignOptions& options = {});

// Pool the exact per-call samples of several cells (typically one group) in
// cell order. Aborts if the cells were run without retain_samples.
[[nodiscard]] std::vector<double> pooled_responses(
    std::span<const CellResult> cells);
[[nodiscard]] std::vector<double> pooled_stretches(
    std::span<const CellResult> cells);

// Fold the cells' bounded streams in cell order — the pooled_* stand-in
// for a campaign run without retain_samples. The quantiles are exact while
// the group's calls fit one cell's reservoir capacity, estimates beyond.
// Aborts if a cell kept its samples.
[[nodiscard]] metrics::StreamingSummary aggregate_responses(
    std::span<const CellResult> cells);
[[nodiscard]] metrics::StreamingSummary aggregate_stretches(
    std::span<const CellResult> cells);

// max c(i) / summed start-kind counters over several cells.
[[nodiscard]] double max_completion(std::span<const CellResult> cells);
[[nodiscard]] node::InvokerStats total_stats(
    std::span<const CellResult> cells);

// One CSV row per cell (coordinates + summary statistics) — the
// whisk_sweep --cells-csv format, also what the thread-count-invariance
// test compares across thread counts.
[[nodiscard]] std::string cells_csv(const CampaignResult& result);

// One JSON object per cell, same content as cells_csv — the whisk_sweep
// --cells-jsonl format (the CI smoke artifact).
[[nodiscard]] std::string cells_jsonl(const CampaignResult& result);

// The RunContext handed to pipeline sinks for one cell: the cell's
// coordinates (cell index plus one field per grid axis), one
// `override:<knob>` field per override axis, then every per-cell metric
// column of the cells CSV, in the same order.
[[nodiscard]] metrics::RunContext cell_context(const CampaignSpec& spec,
                                               const CampaignCell& cell,
                                               const CellResult& result);

}  // namespace whisk::experiments
