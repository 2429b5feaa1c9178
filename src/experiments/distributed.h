#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "experiments/campaign.h"
#include "experiments/campaign_spec.h"
#include "metrics/sink.h"
#include "workload/function.h"

namespace whisk::experiments {

// Multi-process campaign execution: the grid is partitioned into
// group-aligned shards (CampaignSpec::shard), one worker process per
// shard, and the workers' outputs are merged back deterministically. The
// merged cells CSV/JSONL is byte-identical to a single-process
// run_campaign + cells_csv/cells_jsonl at ANY worker count — cells are
// seeded from grid coordinates alone, shards keep global indices, and the
// merge concatenates in shard (= global cell index) order.
//
// Each worker is a fork of the calling process: the child runs its shard
// through run_campaign, writes the results to a pipe and _exit(0)s.
//
// Fault tolerance: a worker that exits non-zero or dies on a signal is
// re-spawned (cells are idempotent, so a re-run is byte-identical) up to
// max_attempts per shard; the driver aborts loudly if a shard keeps
// failing.
struct DistributedOptions {
  int workers = 2;         // number of shards == number of worker processes
  int worker_threads = 1;  // run_campaign threads inside each worker
  int max_attempts = 3;    // spawn attempts per shard before giving up
  bool retain_samples = true;
  std::size_t reservoir_capacity = 4096;
  // Forward worker stderr live (and let workers print progress); when
  // false worker stderr is captured and only replayed if the worker fails.
  bool verbose = false;
  // Test hook: SIGKILL this shard's FIRST attempt as soon as its protocol
  // header arrives (the worker sends the header before running any cell),
  // exercising the crash-retry path. -1 = off.
  int test_kill_shard = -1;
};

// What happened to one shard: its range and how many spawn attempts it
// took (1 = no crash).
struct ShardOutcome {
  ShardRange range;
  int attempts = 1;
};

struct DistributedResult {
  CampaignSpec spec;  // normalized
  // Merged per-cell output in global cell-index order; byte-identical to
  // cells_csv/cells_jsonl of a single-process run of the same grid.
  std::string cells_csv;
  std::string cells_jsonl;
  // One entry per grid group, in global group order (shards are
  // group-aligned, so each group comes from exactly one worker).
  std::vector<GroupSummary> groups;
  std::vector<ShardOutcome> shards;
  // Max peak RSS any worker reported, in KiB: the worker's own VmHWM
  // (reset at worker start) where /proc/self/clear_refs is writable, else
  // ru_maxrss, which includes the footprint inherited from the driver.
  long peak_worker_rss_kb = 0;
};

// Drive a full distributed campaign: spawn options.workers workers, stream
// their shards back, retry crashes, merge deterministically.
[[nodiscard]] DistributedResult run_distributed(
    const CampaignSpec& spec, const workload::FunctionCatalog& cat,
    const DistributedOptions& options = {});

// One shard's cells CSV or cells JSONL, named for diagnostics (a file
// path, or "shard i/n").
struct CellsPart {
  std::string name;
  std::string data;
};

// The merged cells file, or why the parts do not merge.
struct CellsMerge {
  std::string merged;
  std::string diagnostic;  // empty when the merge succeeded
};

// Merge per-shard cells outputs, given in shard order, into the bytes a
// single-process run writes. A CSV part always carries its header row,
// even for an empty shard, so an empty part can only be JSONL; every
// non-empty part must have the format of the first non-empty one (JSONL
// when it starts with '{'). CSV parts must share one header row, which the
// merge keeps once; JSONL parts are concatenated.
[[nodiscard]] CellsMerge merge_cells(const std::vector<CellsPart>& parts);

}  // namespace whisk::experiments
