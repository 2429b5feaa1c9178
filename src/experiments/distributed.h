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
// Two spawn modes share one wire protocol:
//   - worker_command non-empty: fork + exec `worker_command... --worker
//     --shard i/n`, the worker re-parses the grid and speaks the protocol
//     on its stdout (how `whisk_sweep --workers N` distributes itself).
//   - worker_command empty: fork only; the child calls
//     run_worker_protocol in-process and _exit(0)s (how the tests and the
//     benchmark measure multi-process scaling without binary-path
//     plumbing).
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
  // Command prefix for exec-mode workers (argv[0] + fixed args, e.g.
  // {"./whisk_sweep", "<grid>", "--threads", "2"}). The driver appends
  // "--worker --shard i/n". Empty selects fork-only in-process workers.
  std::vector<std::string> worker_command;
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
  // Max peak RSS any worker reported (ru_maxrss, KiB) — the per-process
  // memory footprint the sharding is buying down.
  long peak_worker_rss_kb = 0;
};

// Drive a full distributed campaign: spawn options.workers workers, stream
// their shards back, retry crashes, merge deterministically.
[[nodiscard]] DistributedResult run_distributed(
    const CampaignSpec& spec, const workload::FunctionCatalog& cat,
    const DistributedOptions& options = {});

// Worker side of the wire protocol: run shard `shard_index` of
// `shard_count` over the grid and write the framed results to `fd`
// (header line first — before any cell runs — then cells CSV/JSONL
// frames, per-group summary lines, and a `done` trailer carrying peak
// RSS). Doubles travel as printf "%a" hexfloats, so the driver-side
// reconstruction is bit-exact. Used by the fork-only child and by
// `whisk_sweep --worker`.
void run_worker_protocol(const CampaignSpec& spec,
                         const workload::FunctionCatalog& cat,
                         std::size_t shard_index, std::size_t shard_count,
                         const DistributedOptions& options, int fd);

}  // namespace whisk::experiments
