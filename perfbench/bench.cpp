// whisk_bench: runs one workload of the simulator benchmark and prints
// one JSON line with its metrics, its checked cell counts and the build
// context. run.py builds this binary and turns that line into the
// benchmark's result.
//
//   whisk_bench --workload paper|chaos|wide --seed N --seconds S
//                    [--trace 0|1] [--seeds-per-group K] [--out-dir DIR]
//                    [--digests DIR] [--git-sha SHA]
//   whisk_bench --workload W --setup-only
//   whisk_bench --workload W --write-digests DIR
//
// Each workload is a fixed campaign grid run to completion; --seed offsets
// the grid's seeds= axis, whose length (--seeds-per-group) is the run-length
// knob. Every round of a run times one whisk_sweep-equivalent sweep at all
// hardware threads and one single-thread run_campaign; --trace 1 adds a
// traced serial pass, the node-only pass and the distributed pass. Rounds
// repeat for --seconds, and at least once per hardware thread, and each
// metric is the median over the rounds. Every cell of every pass is checked
// against the traced serial pass and, at the default seed window, against
// the per-cell digests kept in reference/.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "experiments/campaign.h"
#include "experiments/distributed.h"
#include "experiments/paper_data.h"
#include "ledger.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/function.h"

namespace {

using namespace whisk;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main runs: the start of the
// set-up clock.
const Clock::time_point g_process_start = Clock::now();

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
constexpr const char* kUntimedBuild = "an unoptimized or assert-enabled";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kUntimedBuild = "a sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
constexpr const char* kUntimedBuild = "a sanitizer";
#else
constexpr const char* kUntimedBuild = nullptr;
#endif
#else
constexpr const char* kUntimedBuild = nullptr;
#endif

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  const char* axes;  // every grid axis but seeds
  std::size_t seeds_per_group;
  bool retain_samples;  // exact pooled samples, or streaming reservoirs
};

#define PERFBENCH_PAPER_SCHEDULERS \
  "schedulers=baseline/fifo,ours/fifo,ours/sept,ours/eect,ours/rect,ours/fc"

// Table III: the six paper schedulers x five intensities x three core
// counts, one node. At seed 0 the seed window is the paper's five call
// sequences.
constexpr Workload kPaper = {
    "paper",
    PERFBENCH_PAPER_SCHEDULERS
    "; scenarios=uniform?intensity=30,uniform?intensity=40,"
    "uniform?intensity=60,uniform?intensity=90,uniform?intensity=120"
    "; cores=5,10,20",
    5, true};

constexpr Workload kWorkloads[] = {
    kPaper,
    {"chaos",
     "schedulers=ours/sept/least-loaded,baseline/fifo"
     "; scenarios=uniform?intensity=60; cores=10"
     "; clusters=node:4?cost-per-hour=0.48&min-nodes=2&max-nodes=8"
     "|resilience=timeout-s=8&max-attempts=4&retry-budget=1&hedge-p=0.95"
     "&breaker-failures=3&max-queue=64"
     "; autoscalers=none,target-util?tick-s=1&cooldown-s=1"
     "; faults=none,crash-restart?mtbf-s=60&mttr-s=10"
     "+slow-node?mtbf-s=40&factor=3+lost-completion?probability=0.05"
     "; workflows=none,fanout?width=4&join=3",
     16, true},
    {"wide",
     PERFBENCH_PAPER_SCHEDULERS
     "; scenarios=uniform?intensity=10,uniform?intensity=20,"
     "fixed-total?total=40,fixed-total?total=80; cores=2,4",
     100, false},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The grid with its seed axis: seeds [seed * k, seed * k + k).
std::string grid_text(const char* axes, std::uint64_t seed, std::size_t k) {
  const std::uint64_t base = seed * k;
  return std::string(axes) + "; seeds=" + std::to_string(base) + ".." +
         std::to_string(base + k - 1);
}

// ---------------------------------------------------------------------------
// Output checks

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint64_t> line_hashes(std::string_view text) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    out.push_back(fnv1a(text.substr(pos, nl - pos)));
    pos = nl + 1;
  }
  return out;
}

// The cells CSV (header line first) and JSONL of one pass, one hash per
// line.
struct RowDigest {
  std::vector<std::uint64_t> csv;
  std::vector<std::uint64_t> jsonl;
};

RowDigest digest_of(const std::string& csv, const std::string& jsonl) {
  return {line_hashes(csv), line_hashes(jsonl)};
}

// Marks (1) every cell whose CSV or JSONL row differs from `ref`'s; a
// different CSV header fails every cell.
void mark_row_failures(const RowDigest& ref, const RowDigest& got,
                       std::vector<char>& failed) {
  const std::size_t cells = failed.size();
  const bool header_ok =
      !ref.csv.empty() && !got.csv.empty() && ref.csv[0] == got.csv[0];
  for (std::size_t i = 0; i < cells; ++i) {
    const bool csv_ok = header_ok && i + 1 < ref.csv.size() &&
                        i + 1 < got.csv.size() &&
                        ref.csv[i + 1] == got.csv[i + 1];
    const bool jsonl_ok = i < ref.jsonl.size() && i < got.jsonl.size() &&
                          ref.jsonl[i] == got.jsonl[i];
    if (!csv_ok || !jsonl_ok) failed[i] = 1;
  }
  if (got.csv.size() != cells + 1 || got.jsonl.size() != cells) {
    std::fill(failed.begin(), failed.end(), 1);
  }
}

// Marks every cell whose terminal records do not partition into ok + shed
// + dropped.
void mark_partition_failures(const experiments::CampaignResult& result,
                             std::vector<char>& failed) {
  for (std::size_t i = 0; i < result.cells.size() && i < failed.size(); ++i) {
    const experiments::CellResult& c = result.cells[i];
    if (c.ok_calls + c.shed_calls + c.dropped_calls != c.calls) failed[i] = 1;
  }
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const std::vector<char>& failed_cells) {
    attempted += failed_cells.size();
    failed += static_cast<std::size_t>(
        std::count(failed_cells.begin(), failed_cells.end(), 1));
  }
};

// The per-cell digest file kept in the benchmark's reference/ directory for
// the default seed window: "header <hash>" then "<cell> <csv> <jsonl>".
std::string digest_path(const std::string& dir, const Workload& w) {
  return dir + "/" + w.name + ".digest";
}

bool write_digest(const std::string& path, const Workload& w,
                  const RowDigest& d) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "# cells CSV/JSONL row hashes (FNV-1a 64): workload " << w.name
      << ", seed 0, seeds-per-group " << w.seeds_per_group << "\n";
  char line[80];
  std::snprintf(line, sizeof line, "header %016llx\n",
                static_cast<unsigned long long>(d.csv.at(0)));
  out << line;
  for (std::size_t i = 0; i < d.jsonl.size(); ++i) {
    std::snprintf(line, sizeof line, "%zu %016llx %016llx\n", i,
                  static_cast<unsigned long long>(d.csv.at(i + 1)),
                  static_cast<unsigned long long>(d.jsonl[i]));
    out << line;
  }
  return static_cast<bool>(out);
}

bool read_digest(const std::string& path, RowDigest* d) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    unsigned long long a = 0;
    unsigned long long b = 0;
    std::size_t cell = 0;
    if (std::sscanf(line.c_str(), "header %llx", &a) == 1) {
      d->csv.insert(d->csv.begin(), a);
    } else if (std::sscanf(line.c_str(), "%zu %llx %llx", &cell, &a, &b) ==
                   3 &&
               cell == d->jsonl.size()) {
      d->csv.push_back(a);
      d->jsonl.push_back(b);
    } else {
      return false;
    }
  }
  return d->csv.size() == d->jsonl.size() + 1;
}

// Marks every cell whose rows differ from the workload's stored digest (the
// byte-identity rule across commits). Exits when the digest is unreadable:
// a run that cannot check its outputs reports nothing.
void mark_digest_failures(const std::string& dir, const Workload& w,
                          const RowDigest& got, std::vector<char>& failed) {
  if (dir.empty()) return;
  RowDigest stored;
  if (!read_digest(digest_path(dir, w), &stored)) {
    std::fprintf(stderr, "cannot read %s\n", digest_path(dir, w).c_str());
    std::exit(1);
  }
  mark_row_failures(stored, got, failed);
}

// ---------------------------------------------------------------------------
// Memory

// Returns the heap's free pages to the kernel, then resets the RSS
// high-water mark (VmHWM), so the next read covers what ran in between on
// top of live memory only, not the allocator's leftovers from earlier
// passes (their pool threads' malloc arenas outlive the threads).
void reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Passes

// The hardware threads this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
  }
  return out;
}

// Runs `fn` with the calling thread pinned to hardware thread `cpu`, then
// restores its affinity (threads it starts later inherit the mask). The
// single-thread passes of successive rounds rotate over every allowed
// hardware thread, so one core slowed by a busy neighbour cannot bias a
// whole run.
template <typename Fn>
void run_on_cpu(int cpu, Fn&& fn) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool pinned = sched_getaffinity(0, sizeof saved, &saved) == 0;
  if (pinned) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  fn();
  if (pinned) sched_setaffinity(0, sizeof saved, &saved);
}

bool write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  return static_cast<bool>(out);
}

struct SweepSample {
  double total_s = 0.0;
  double campaign_s = 0.0;   // run_campaign
  double aggregate_s = 0.0;  // per-group summaries and the group table
  double render_s = 0.0;     // cells CSV/JSONL rendered, all files written
  double peak_rss_mb = 0.0;
  std::size_t output_bytes = 0;
};

// What `whisk_sweep <grid> --threads N --cells-csv --cells-jsonl` does:
// run_campaign, per-group aggregation, cells CSV and JSONL rendered and
// written. The rendered outputs are handed back for checking.
SweepSample run_sweep(const experiments::CampaignSpec& spec,
                      const workload::FunctionCatalog& cat, bool retain,
                      int threads, const std::string& prefix,
                      experiments::CampaignResult* result, std::string* csv,
                      std::string* jsonl) {
  SweepSample s;
  reset_peak_rss();
  experiments::CampaignOptions opts;
  opts.threads = threads;
  opts.retain_samples = retain;
  const auto t0 = Clock::now();
  *result = experiments::run_campaign(spec, cat, opts);
  const auto t1 = Clock::now();

  util::Table agg({"group", "seeds", "calls", "avg R", "p50 R", "p95 R",
                   "p99 R", "avg S", "p50 S", "max c(i)", "cold"});
  for (std::size_t g = 0; g < result->group_count(); ++g) {
    const auto cells = result->group(g);
    const util::Summary r =
        retain ? util::summarize(experiments::pooled_responses(cells))
               : experiments::aggregate_responses(cells).summary();
    const util::Summary st =
        retain ? util::summarize(experiments::pooled_stretches(cells))
               : experiments::aggregate_stretches(cells).summary();
    const auto stats = experiments::total_stats(cells);
    agg.add_row({result->group_label(g), std::to_string(cells.size()),
                 std::to_string(r.count), util::fmt(r.mean),
                 util::fmt(r.p50), util::fmt(r.p95), util::fmt(r.p99),
                 util::fmt(st.mean, 1), util::fmt(st.p50, 1),
                 util::fmt(experiments::max_completion(cells)),
                 std::to_string(stats.cold_starts)});
  }
  const std::string table = agg.to_string();
  const auto t2 = Clock::now();

  *csv = experiments::cells_csv(*result);
  *jsonl = experiments::cells_jsonl(*result);
  const bool written = write_file(prefix + ".groups.txt", table) &&
                       write_file(prefix + ".cells.csv", *csv) &&
                       write_file(prefix + ".cells.jsonl", *jsonl);
  const auto t3 = Clock::now();
  if (!written) {
    std::fprintf(stderr, "cannot write sweep outputs under %s\n",
                 prefix.c_str());
    std::exit(1);
  }

  s.campaign_s = std::chrono::duration<double>(t1 - t0).count();
  s.aggregate_s = std::chrono::duration<double>(t2 - t1).count();
  s.render_s = std::chrono::duration<double>(t3 - t2).count();
  s.total_s = std::chrono::duration<double>(t3 - t0).count();
  s.peak_rss_mb = peak_rss_mb();
  s.output_bytes = table.size() + csv->size() + jsonl->size();
  return s;
}

struct DistSample {
  double seconds = 0.0;
  long worker_rss_kb = 0;
};

// run_distributed with fork-only workers, one per hardware thread and one
// thread each; the merged outputs are written like the in-process sweep's.
DistSample run_distributed_pass(const experiments::CampaignSpec& spec,
                                const workload::FunctionCatalog& cat,
                                bool retain, int workers,
                                const std::string& prefix, std::string* csv,
                                std::string* jsonl) {
  experiments::DistributedOptions opts;
  opts.workers = workers;
  opts.worker_threads = 1;
  opts.retain_samples = retain;
  const auto t0 = Clock::now();
  experiments::DistributedResult result =
      experiments::run_distributed(spec, cat, opts);
  const bool written = write_file(prefix + ".dist.cells.csv",
                                  result.cells_csv) &&
                       write_file(prefix + ".dist.cells.jsonl",
                                  result.cells_jsonl);
  DistSample s;
  s.seconds = since(t0);
  if (!written) {
    std::fprintf(stderr, "cannot write distributed outputs under %s\n",
                 prefix.c_str());
    std::exit(1);
  }
  s.worker_rss_kb = result.peak_worker_rss_kb;
  *csv = std::move(result.cells_csv);
  *jsonl = std::move(result.cells_jsonl);
  return s;
}

// A workload's grid at its default seed window on all hardware threads,
// untimed, checked against the stored digests: the inputs of the model
// figures below on runs whose own seed window differs.
experiments::CampaignResult run_fence(const Workload& w,
                                      const workload::FunctionCatalog& cat,
                                      int threads, const std::string& digests,
                                      Tally& tally) {
  const experiments::CampaignSpec spec =
      experiments::CampaignSpec::parse(grid_text(w.axes, 0, w.seeds_per_group))
          .normalized();
  experiments::CampaignOptions opts;
  opts.threads = threads;
  opts.retain_samples = w.retain_samples;
  experiments::CampaignResult result =
      experiments::run_campaign(spec, cat, opts);
  std::vector<char> failed(result.cells.size(), 0);
  mark_partition_failures(result, failed);
  mark_digest_failures(digests, w,
                       digest_of(experiments::cells_csv(result),
                                 experiments::cells_jsonl(result)),
                       failed);
  tally.add(failed);
  return result;
}

// ---------------------------------------------------------------------------
// Model figures

bool is_scheduler(const experiments::SchedulerSpec& s, const char* invoker,
                  const char* policy) {
  return s.invoker == invoker && s.policy == policy;
}

// Mean response and stretch of each baseline/fifo cell over those of its
// matched ours/sept cell (every other coordinate and the seed equal),
// combined as a geometric mean over the matched pairs so that no single
// heavy-tailed cell decides the figure.
struct Gains {
  double response = 0.0;
  double stretch = 0.0;
};

Gains paper_gains(const experiments::CampaignResult& result) {
  const auto& spec = result.spec;
  // The scheduler is the outermost axis of the expansion order, so cells
  // `stride` apart differ only in their scheduler.
  const std::size_t stride = spec.size() / spec.schedulers.size();
  std::vector<const experiments::CellResult*> base(stride, nullptr);
  std::vector<const experiments::CellResult*> ours(stride, nullptr);
  for (const auto& cell : result.cells) {
    const auto& sched =
        spec.schedulers[spec.coordinates(cell.index).scheduler_i];
    if (is_scheduler(sched, "baseline", "fifo")) base[cell.index % stride] = &cell;
    if (is_scheduler(sched, "ours", "sept")) ours[cell.index % stride] = &cell;
  }
  double log_r = 0.0;
  double log_s = 0.0;
  std::size_t pairs = 0;
  for (std::size_t k = 0; k < stride; ++k) {
    if (base[k] == nullptr || ours[k] == nullptr) continue;
    const util::Summary br = base[k]->response_summary();
    const util::Summary bs = base[k]->stretch_summary();
    const util::Summary orr = ours[k]->response_summary();
    const util::Summary os = ours[k]->stretch_summary();
    if (br.mean <= 0.0 || bs.mean <= 0.0 || orr.mean <= 0.0 ||
        os.mean <= 0.0) {
      continue;
    }
    log_r += std::log(br.mean / orr.mean);
    log_s += std::log(bs.mean / os.mean);
    ++pairs;
  }
  if (pairs == 0) return {};
  const double n = static_cast<double>(pairs);
  return {std::exp(log_r / n), std::exp(log_s / n)};
}

// Mean relative error of each group's pooled mean response against the
// matching Table III row (paper::find_single_node); 0 groups matched
// leaves *matched at 0.
double table3_error(const experiments::CampaignResult& result,
                    std::size_t* matched) {
  double err = 0.0;
  *matched = 0;
  const auto& spec = result.spec;
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const auto at = spec.coordinates(g * spec.seeds_per_group());
    const auto& scenario = spec.scenarios[at.scenario_i];
    if (scenario.name != "uniform" || !scenario.has("intensity") ||
        spec.cluster_mode() || spec.nodes[at.nodes_i] != 1) {
      continue;
    }
    const auto row = experiments::paper::find_single_node(
        spec.cores[at.cores_i],
        static_cast<int>(scenario.number("intensity", 0.0)),
        spec.schedulers[at.scheduler_i].label());
    if (!row) continue;
    double sum = 0.0;
    double ok = 0.0;
    for (const auto& cell : result.group(g)) {
      sum += cell.response_summary().mean * static_cast<double>(cell.ok_calls);
      ok += static_cast<double>(cell.ok_calls);
    }
    if (ok == 0.0) continue;
    err += std::fabs(sum / ok - row->r_avg) / row->r_avg;
    ++*matched;
  }
  return *matched > 0 ? err / static_cast<double>(*matched) : 0.0;
}

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// One value per round for every metric; the result is each metric's median.
class Metrics {
 public:
  void add(const std::string& name, const char* unit, double value) {
    auto& slot = values_[name];
    slot.unit = unit;
    slot.samples.push_back(value);
  }

  std::string to_json() const {
    std::string out = "{";
    for (const auto& [name, slot] : values_) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "{\"value\":%.17g,\"min\":%.17g,\"max\":%.17g,",
                    median(slot.samples),
                    *std::min_element(slot.samples.begin(),
                                      slot.samples.end()),
                    *std::max_element(slot.samples.begin(),
                                      slot.samples.end()));
      if (out.size() > 1) out += ",";
      out += "\"" + name + "\":" + buf + "\"unit\":\"" + slot.unit +
             "\",\"samples\":" + std::to_string(slot.samples.size()) + "}";
    }
    return out + "}";
  }

 private:
  struct Slot {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, Slot> values_;
};

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t seeds_per_group = 0;  // 0 = the workload's default
  std::string out_dir = ".";
  std::string digests;  // directory of <workload>.digest files
  std::string git_sha = "unknown";
  bool setup_only = false;
  std::string write_digests;  // directory to write this workload's digest
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper|chaos|wide [--seed N] "
               "[--seconds S] [--trace 0|1] [--seeds-per-group K] "
               "[--out-dir DIR] [--digests DIR] [--git-sha SHA] "
               "[--setup-only] [--write-digests DIR]\n",
               argv0);
  return 2;
}

bool parse_options(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&]() -> const char* { return argv[++i]; };
    if (arg == "--setup-only") {
      o->setup_only = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      o->workload = find_workload(value());
      if (o->workload == nullptr) return false;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      o->trace = std::strcmp(value(), "0") != 0;
    } else if (arg == "--seeds-per-group") {
      o->seeds_per_group = std::strtoull(value(), nullptr, 10);
      if (o->seeds_per_group == 0) return false;
    } else if (arg == "--out-dir") {
      o->out_dir = value();
    } else if (arg == "--digests") {
      o->digests = value();
    } else if (arg == "--git-sha") {
      o->git_sha = value();
    } else if (arg == "--write-digests") {
      o->write_digests = value();
    } else {
      return false;
    }
  }
  return o->workload != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return usage(argv[0]);
  if (kUntimedBuild != nullptr ||
      std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::fprintf(stderr, "perfbench: refusing to time %s build (%s)\n",
                 kUntimedBuild != nullptr ? kUntimedBuild : "a Debug",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const Workload& w = *opt.workload;
  const std::size_t per_group =
      opt.seeds_per_group > 0 ? opt.seeds_per_group : w.seeds_per_group;
  const bool default_window = opt.seed == 0 && per_group == w.seeds_per_group;
  const int nproc = util::ThreadPool::hardware_threads();

  // Set-up: the catalog, the grid parse and normalize, first use of every
  // registry the grid names.
  const workload::FunctionCatalog cat = workload::sebs_catalog();
  const experiments::CampaignSpec spec =
      experiments::CampaignSpec::parse(grid_text(w.axes, opt.seed, per_group))
          .normalized();
  const double setup_s = since(g_process_start);
  if (opt.setup_only) {
    std::printf("{\"setup_s\":%.17g}\n", setup_s);
    return 0;
  }
  const std::size_t cells = spec.size();

  Tally tally;
  // The traced serial pass is the reference every other pass must match
  // row for row (the thread-count determinism contract).
  RowDigest reference;
  {
    perfbench::LayerLedger untimed;
    const auto result =
        perfbench::run_traced_pass(spec, cat, w.retain_samples, untimed);
    reference = digest_of(experiments::cells_csv(result),
                          experiments::cells_jsonl(result));
    std::vector<char> failed(cells, 0);
    mark_partition_failures(result, failed);
    if (!opt.write_digests.empty()) {
      if (!default_window) {
        std::fprintf(stderr, "digests are kept for seed 0 at the default "
                             "seeds-per-group only\n");
        return 2;
      }
      if (std::count(failed.begin(), failed.end(), 1) > 0 ||
          !write_digest(digest_path(opt.write_digests, w), w, reference)) {
        std::fprintf(stderr, "cannot write a digest for %s\n", w.name);
        return 1;
      }
      std::printf("{\"digest\":%s,\"cells\":%zu}\n",
                  json_string(digest_path(opt.write_digests, w)).c_str(),
                  cells);
      return 0;
    }
    if (default_window) {
      mark_digest_failures(opt.digests, w, reference, failed);
    }
    tally.add(failed);
  }

  const std::string prefix = opt.out_dir + "/" + w.name;
  auto check_rows = [&](const std::string& csv, const std::string& jsonl,
                        const experiments::CampaignResult* result) {
    std::vector<char> failed(cells, 0);
    mark_row_failures(reference, digest_of(csv, jsonl), failed);
    if (result != nullptr) mark_partition_failures(*result, failed);
    tally.add(failed);
  };

  Metrics m;
  m.add("setup_s", "s", setup_s);
  Gains gains;
  double table3 = 0.0;
  std::size_t table3_groups = 0;
  const double dcells = static_cast<double>(cells);

  // At least one turn over the hardware threads (at most 8 rounds of it on
  // big hosts), so every core hosts a single-thread pass.
  const std::vector<int> cpus = allowed_cpus();
  const int turn = std::clamp(static_cast<int>(cpus.size()), 1, 8);
  const auto loop_start = Clock::now();
  for (int round = 0; round < turn || since(loop_start) < opt.seconds;
       ++round) {
    const int cpu = cpus.empty() ? 0 : cpus[static_cast<std::size_t>(round) %
                                             cpus.size()];
    experiments::CampaignResult result;
    std::string csv;
    std::string jsonl;
    const SweepSample sweep = run_sweep(spec, cat, w.retain_samples, nproc,
                                        prefix, &result, &csv, &jsonl);
    check_rows(csv, jsonl, &result);
    if (round == 0 && default_window) {
      gains = paper_gains(result);
      table3 = table3_error(result, &table3_groups);
    }
    result = {};

    experiments::CampaignOptions serial;
    serial.threads = 1;
    serial.retain_samples = w.retain_samples;
    double serial_s = 0.0;
    run_on_cpu(cpu, [&] {
      const auto t0 = Clock::now();
      result = experiments::run_campaign(spec, cat, serial);
      serial_s = since(t0);
    });
    check_rows(experiments::cells_csv(result),
               experiments::cells_jsonl(result), &result);
    result = {};
    const double cells_per_s_1t = dcells / serial_s;

    m.add("sweep_s", "s", sweep.total_s);
    m.add("cells_per_s_1t", "1/s", cells_per_s_1t);
    m.add("peak_rss_mb", "MB", sweep.peak_rss_mb);
    if (!opt.trace) continue;

    // The traced passes, on the same core as this round's untraced serial
    // pass: per-layer ledger, node model alone, then processes.
    perfbench::LayerLedger L;
    perfbench::NodeLedger node;
    run_on_cpu(cpu, [&] {
      result = perfbench::run_traced_pass(spec, cat, w.retain_samples, L);
      node = perfbench::run_node_pass(spec, cat);
    });
    check_rows(experiments::cells_csv(result),
               experiments::cells_jsonl(result), &result);
    result = {};
    const DistSample dist = run_distributed_pass(
        spec, cat, w.retain_samples, nproc, prefix, &csv, &jsonl);
    check_rows(csv, jsonl, nullptr);

    const double calls = static_cast<double>(L.calls);
    const double setup_part = L.scenario_s + L.build_s + L.warmup_s +
                              L.submit_s;
    m.add("workload.scenario_s", "s", L.scenario_s);
    m.add("workload.scenario_reuse_frac", "frac",
          ratio(static_cast<double>(L.scenario_reuses), dcells));
    m.add("cluster.build_s", "s", L.build_s);
    m.add("cluster.warmup_s", "s", L.warmup_s);
    m.add("cluster.submit_s", "s", L.submit_s);
    m.add("cluster.setup_frac", "frac", ratio(setup_part, L.wall_s));
    m.add("cluster.attempts_per_call", "ratio",
          ratio(static_cast<double>(L.attempts), calls));
    m.add("cluster.hedge_win_frac", "frac",
          ratio(static_cast<double>(L.hedges_won),
                static_cast<double>(L.hedges)));
    m.add("cluster.shed_frac", "frac",
          ratio(static_cast<double>(L.shed), calls));
    m.add("cluster.dropped_frac", "frac",
          ratio(static_cast<double>(L.dropped), calls));
    m.add("sim.run_s", "s", L.run_s);
    m.add("sim.run_frac", "frac", ratio(L.run_s, L.wall_s));
    m.add("sim.events", "count", static_cast<double>(L.events));
    m.add("sim.events_per_call", "ratio",
          ratio(static_cast<double>(L.events), calls));
    m.add("sim.ns_per_event", "ns",
          ratio(1e9 * L.run_s, static_cast<double>(L.events)));
    m.add("sim.pending_at_run_per_call", "ratio",
          ratio(static_cast<double>(L.pending_at_run), calls));
    m.add("node.ns_per_call", "ns",
          ratio(1e9 * node.seconds, static_cast<double>(node.calls)));
    m.add("node.events_per_call", "ratio",
          ratio(static_cast<double>(node.events),
                static_cast<double>(node.calls)));
    m.add("node.cold_start_frac", "frac",
          ratio(static_cast<double>(L.cold_starts), calls));
    m.add("node.daemon_wait_s", "s", ratio(L.daemon_wait_s, calls));
    m.add("metrics.summarize_s", "s", L.summarize_s);
    m.add("experiments.cell_ms_p50", "ms", percentile(L.cell_ms, 0.50));
    m.add("experiments.cell_ms_p99", "ms", percentile(L.cell_ms, 0.99));
    m.add("experiments.parallel_eff", "ratio",
          ratio(dcells / sweep.campaign_s, nproc * cells_per_s_1t));
    m.add("experiments.aggregate_s", "s", sweep.aggregate_s);
    m.add("experiments.render_s", "s", sweep.render_s);
    m.add("experiments.output_bytes", "B",
          static_cast<double>(sweep.output_bytes));
    m.add("experiments.tail_frac", "frac",
          ratio(sweep.aggregate_s + sweep.render_s, sweep.total_s));
    m.add("experiments.setup_tail_frac", "frac",
          ratio(ratio(setup_part, L.wall_s) * sweep.campaign_s +
                    sweep.aggregate_s + sweep.render_s,
                sweep.total_s));
    m.add("experiments.distributed_s", "s", dist.seconds);
    m.add("experiments.distributed_speedup", "ratio",
          ratio(sweep.total_s, dist.seconds));
    m.add("experiments.worker_rss_kb", "kB",
          static_cast<double>(dist.worker_rss_kb));
    m.add("trace.cells_per_s_1t", "1/s", ratio(dcells, L.wall_s));
    m.add("trace.overhead", "ratio",
          ratio(cells_per_s_1t, ratio(dcells, L.wall_s)));
  }

  // The model fence: response_gain, stretch_gain and table3_err always come
  // from the default seed window, so a change in them is a change of the
  // model, never of --seed. Chaos and wide have no Table III groups; their
  // table3_err comes from the paper workload's fence.
  if (!default_window) {
    const auto fence = run_fence(w, cat, nproc, opt.digests, tally);
    gains = paper_gains(fence);
    table3 = table3_error(fence, &table3_groups);
  }
  if (table3_groups == 0) {
    const auto fence = run_fence(kPaper, cat, nproc, opt.digests, tally);
    table3 = table3_error(fence, &table3_groups);
  }
  m.add("response_gain", "ratio", gains.response);
  m.add("stretch_gain", "ratio", gains.stretch);
  m.add("table3_err", "frac", table3);

  std::printf(
      "{\"workload\":%s,\"cells\":%zu,\"seeds\":%s,"
      "\"context\":{\"nproc\":%d,\"compiler\":%s,\"build_type\":%s,"
      "\"git_sha\":%s},\"attempted\":%zu,\"failed\":%zu,"
      "\"table3_groups\":%zu,\"metrics\":%s}\n",
      json_string(w.name).c_str(), cells,
      json_string(grid_text("", opt.seed, per_group).substr(2)).c_str(),
      nproc, json_string(PERFBENCH_CXX_ID " " PERFBENCH_CXX_VERSION).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(opt.git_sha).c_str(), tally.attempted, tally.failed,
      table3_groups, m.to_json().c_str());
  return 0;
}
