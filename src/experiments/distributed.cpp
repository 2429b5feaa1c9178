#include "experiments/distributed.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string_view>
#include <utility>

#include "util/check.h"
#include "util/parse.h"
#include "util/peak_rss.h"

namespace whisk::experiments {
namespace {

// ---- wire helpers -----------------------------------------------------------
//
// The protocol is line-framed text over the worker's output pipe:
//
//   whisk-shard 1 <i>/<n> groups <bg> <eg> cells <bc> <ec>\n   (header,
//       written BEFORE any cell runs — the driver's liveness signal and
//       the anchor for the crash-injection test hook)
//   csv <nbytes>\n<nbytes raw bytes>
//   jsonl <nbytes>\n<nbytes raw bytes>
//   groups <count>\n
//   g <global> <calls> <ok> <cold> <max_completion>\n        (per group)
//   r <n> <mean> <m2> <min> <max> <cap> <seen> <k> <k samples>\n
//   s <n> <mean> <m2> <min> <max> <cap> <seen> <k> <k samples>\n
//   done rss <kb>\n
//
// Every double travels as printf "%a" (hexfloat), so the driver-side
// StreamingSummary state is reconstructed bit-for-bit and the merged
// summaries match a single-process run exactly.

void write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      WHISK_CHECK(false, "distributed worker failed writing its pipe");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string hex_double(double x) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

void append_summary_line(std::string* out, char tag,
                         const metrics::StreamingSummary& s) {
  const util::StreamingStatsState st = s.stats.state();
  *out += tag;
  *out += ' ' + std::to_string(st.n) + ' ' + hex_double(st.mean) + ' ' +
          hex_double(st.m2) + ' ' + hex_double(st.min) + ' ' +
          hex_double(st.max) + ' ' + std::to_string(s.reservoir.capacity()) +
          ' ' + std::to_string(s.reservoir.seen()) + ' ' +
          std::to_string(s.reservoir.size());
  for (const double x : s.reservoir.samples()) *out += ' ' + hex_double(x);
  *out += '\n';
}

// ---- driver-side parsing ----------------------------------------------------

std::size_t parse_size(std::string_view field, const char* what) {
  unsigned long long v = 0;
  if (!util::parse_whole_number(field, &v)) {
    WHISK_CHECK(false, (std::string("distributed protocol: bad ") + what +
                        " field \"" + std::string(field) + "\"")
                           .c_str());
  }
  return static_cast<std::size_t>(v);
}

double parse_double(std::string_view field, const char* what) {
  double v = 0.0;
  if (!util::parse_finite_double(field, &v)) {
    WHISK_CHECK(false, (std::string("distributed protocol: bad ") + what +
                        " field \"" + std::string(field) + "\"")
                           .c_str());
  }
  return v;
}

// Strict cursor over one worker's complete output. Only run on buffers
// from workers that exited cleanly, so any malformation is a protocol bug
// worth an abort, not a crash symptom.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;

  std::string_view line() {
    const std::size_t nl = data.find('\n', pos);
    WHISK_CHECK(nl != std::string_view::npos,
                "distributed protocol: truncated worker output");
    std::string_view out = data.substr(pos, nl - pos);
    pos = nl + 1;
    return out;
  }

  std::string_view bytes(std::size_t n) {
    WHISK_CHECK(pos + n <= data.size(),
                "distributed protocol: byte frame past end of worker output");
    std::string_view out = data.substr(pos, n);
    pos += n;
    return out;
  }

  [[nodiscard]] bool at_end() const { return pos == data.size(); }
};

std::vector<std::string_view> tokens(std::string_view line) {
  std::vector<std::string_view> out;
  for (std::string_view t : util::split_any(line, " ")) {
    if (!t.empty()) out.push_back(t);
  }
  return out;
}

metrics::StreamingSummary parse_summary_line(std::string_view line,
                                             char expect_tag) {
  const std::vector<std::string_view> t = tokens(line);
  WHISK_CHECK(t.size() >= 9 && t[0].size() == 1 && t[0][0] == expect_tag,
              "distributed protocol: malformed group summary line");
  util::StreamingStatsState st;
  st.n = parse_size(t[1], "stats n");
  st.mean = parse_double(t[2], "stats mean");
  st.m2 = parse_double(t[3], "stats m2");
  st.min = parse_double(t[4], "stats min");
  st.max = parse_double(t[5], "stats max");
  const std::size_t cap = parse_size(t[6], "reservoir capacity");
  const std::size_t seen = parse_size(t[7], "reservoir seen");
  const std::size_t k = parse_size(t[8], "reservoir size");
  WHISK_CHECK(t.size() == 9 + k,
              "distributed protocol: group summary sample count mismatch");
  std::vector<double> samples;
  samples.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    samples.push_back(parse_double(t[9 + j], "reservoir sample"));
  }
  metrics::StreamingSummary out(cap);
  out.stats = util::StreamingStats::from_state(st);
  out.reservoir = util::Reservoir::from_state(cap, seen, std::move(samples));
  return out;
}

// Everything one clean worker exit yields.
struct ShardPayload {
  std::string csv;
  std::string jsonl;
  std::vector<GroupSummary> groups;
  long rss_kb = 0;
};

// Validate the header against the range the driver computed from its own
// copy of the grid — a mismatch means the grid string did not round-trip
// into the worker (or the worker binary disagrees about the partition).
void check_header(std::string_view line, const ShardRange& expect) {
  const std::vector<std::string_view> t = tokens(line);
  WHISK_CHECK(t.size() == 9 && t[0] == "whisk-shard" && t[1] == "1" &&
                  t[3] == "groups" && t[6] == "cells",
              "distributed protocol: malformed shard header");
  WHISK_CHECK(t[2] == expect.selector(),
              "distributed worker announced the wrong shard selector");
  WHISK_CHECK(parse_size(t[4], "header begin group") == expect.begin_group &&
                  parse_size(t[5], "header end group") == expect.end_group &&
                  parse_size(t[7], "header begin cell") ==
                      expect.begin_cell() &&
                  parse_size(t[8], "header end cell") == expect.end_cell(),
              "distributed worker partitioned the grid differently than the "
              "driver — grid string round-trip mismatch");
}

ShardPayload parse_payload(std::string_view data, const ShardRange& expect) {
  Cursor cur{data};
  check_header(cur.line(), expect);

  ShardPayload out;
  {
    const std::vector<std::string_view> t = tokens(cur.line());
    WHISK_CHECK(t.size() == 2 && t[0] == "csv",
                "distributed protocol: expected csv frame");
    out.csv = std::string(cur.bytes(parse_size(t[1], "csv byte count")));
    WHISK_CHECK(out.csv.find('\n') != std::string::npos,
                "distributed shard CSV is missing its header row");
  }
  {
    const std::vector<std::string_view> t = tokens(cur.line());
    WHISK_CHECK(t.size() == 2 && t[0] == "jsonl",
                "distributed protocol: expected jsonl frame");
    out.jsonl = std::string(cur.bytes(parse_size(t[1], "jsonl byte count")));
  }
  std::size_t count = 0;
  {
    const std::vector<std::string_view> t = tokens(cur.line());
    WHISK_CHECK(t.size() == 2 && t[0] == "groups",
                "distributed protocol: expected groups frame");
    count = parse_size(t[1], "group count");
  }
  WHISK_CHECK(count == expect.groups(),
              "distributed worker returned the wrong number of groups");
  out.groups.reserve(count);
  for (std::size_t g = 0; g < count; ++g) {
    const std::vector<std::string_view> t = tokens(cur.line());
    WHISK_CHECK(t.size() == 6 && t[0] == "g",
                "distributed protocol: malformed group counter line");
    GroupSummary sum;
    sum.group = parse_size(t[1], "group index");
    WHISK_CHECK(sum.group == expect.begin_group + g,
                "distributed worker groups out of order");
    sum.calls = parse_size(t[2], "group calls");
    sum.ok_calls = parse_size(t[3], "group ok_calls");
    sum.cold_starts = parse_size(t[4], "group cold_starts");
    sum.max_completion = parse_double(t[5], "group max_completion");
    sum.response = parse_summary_line(cur.line(), 'r');
    sum.stretch = parse_summary_line(cur.line(), 's');
    out.groups.push_back(std::move(sum));
  }
  {
    const std::vector<std::string_view> t = tokens(cur.line());
    WHISK_CHECK(t.size() == 3 && t[0] == "done" && t[1] == "rss",
                "distributed protocol: expected done trailer");
    out.rss_kb = static_cast<long>(parse_size(t[2], "peak rss"));
  }
  WHISK_CHECK(cur.at_end(),
              "distributed protocol: trailing bytes after done trailer");
  return out;
}

// ---- worker bookkeeping -----------------------------------------------------

struct Worker {
  std::size_t shard = 0;
  ShardRange range;
  int attempts = 0;
  pid_t pid = -1;
  int out_fd = -1;  // -1 once EOF
  int err_fd = -1;
  std::string out;
  std::string err;
  bool header_checked = false;
  bool kill_pending = false;  // test hook armed for the current attempt
  bool done = false;          // payload parsed and stored
};

void close_fd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

// Drain one ready fd into `buf`; closes it (sets -1) at EOF.
void drain(int* fd, std::string* buf) {
  char tmp[65536];
  const ssize_t n = ::read(*fd, tmp, sizeof(tmp));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    WHISK_CHECK(false, "distributed driver failed reading a worker pipe");
  }
  if (n == 0) {
    close_fd(fd);
    return;
  }
  buf->append(tmp, static_cast<std::size_t>(n));
}

// Worker side of the wire protocol: run shard `shard_index` of
// `shard_count` over the grid and write the framed results to `fd`. A
// forked worker inherits the driver's RSS high-water mark, so it is reset
// first and the done trailer reports the shard's own run.
void run_worker_protocol(const CampaignSpec& raw_spec,
                         const workload::FunctionCatalog& cat,
                         std::size_t shard_index, std::size_t shard_count,
                         const DistributedOptions& options, int fd) {
  util::reset_peak_rss();
  const CampaignSpec spec = raw_spec.normalized();
  const ShardRange range = spec.shard(shard_index, shard_count);

  // Header first — before any cell runs — so the driver can tell "alive
  // and started" from "never came up", and so the crash-injection test can
  // kill a worker that is provably mid-shard.
  write_all(fd, "whisk-shard 1 " + range.selector() + " groups " +
                    std::to_string(range.begin_group) + ' ' +
                    std::to_string(range.end_group) + " cells " +
                    std::to_string(range.begin_cell()) + ' ' +
                    std::to_string(range.end_cell()) + '\n');

  CampaignOptions copts;
  copts.threads = options.worker_threads;
  copts.retain_samples = options.retain_samples;
  copts.reservoir_capacity = options.reservoir_capacity;
  copts.shard = range;
  if (options.verbose) {
    const std::string prefix = "[shard " + range.selector() + "] ";
    copts.progress = [prefix](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "%s%zu/%zu cells\n", prefix.c_str(), done, total);
    };
  }
  const CampaignResult result = run_campaign(spec, cat, copts);

  const std::string csv = cells_csv(result);
  const std::string jsonl = cells_jsonl(result);
  std::string body;
  body += "csv " + std::to_string(csv.size()) + '\n';
  body += csv;
  body += "jsonl " + std::to_string(jsonl.size()) + '\n';
  body += jsonl;
  body += "groups " + std::to_string(result.group_count()) + '\n';
  for (std::size_t g = 0; g < result.group_count(); ++g) {
    const GroupSummary sum = result.group_summary(g);
    body += "g " + std::to_string(sum.group) + ' ' +
            std::to_string(sum.calls) + ' ' + std::to_string(sum.ok_calls) +
            ' ' + std::to_string(sum.cold_starts) + ' ' +
            hex_double(sum.max_completion) + '\n';
    append_summary_line(&body, 'r', sum.response);
    append_summary_line(&body, 's', sum.stretch);
  }
  body += "done rss " + std::to_string(util::peak_rss_kb()) + '\n';
  write_all(fd, body);
}

void spawn_worker(Worker* w, const CampaignSpec& spec,
                  const workload::FunctionCatalog& cat,
                  const DistributedOptions& options) {
  int out_pipe[2];
  int err_pipe[2];
  WHISK_CHECK(::pipe(out_pipe) == 0 && ::pipe(err_pipe) == 0,
              "distributed driver could not create worker pipes");

  // Buffered stdio crossing fork would replay in the child at _exit time.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  WHISK_CHECK(pid >= 0, "distributed driver could not fork a worker");

  if (pid == 0) {
    ::close(out_pipe[0]);
    ::close(err_pipe[0]);
    ::dup2(err_pipe[1], 2);
    ::close(err_pipe[1]);
    // _exit (not exit) so the child never runs the parent's
    // atexit/leak-check machinery.
    run_worker_protocol(spec, cat, w->shard,
                        static_cast<std::size_t>(options.workers), options,
                        out_pipe[1]);
    ::close(out_pipe[1]);
    ::_exit(0);
  }

  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  w->pid = pid;
  w->out_fd = out_pipe[0];
  w->err_fd = err_pipe[0];
  w->out.clear();
  w->err.clear();
  w->header_checked = false;
  ++w->attempts;
  w->kill_pending = options.test_kill_shard >= 0 &&
                    static_cast<std::size_t>(options.test_kill_shard) ==
                        w->shard &&
                    w->attempts == 1;
}

}  // namespace

DistributedResult run_distributed(const CampaignSpec& raw_spec,
                                  const workload::FunctionCatalog& cat,
                                  const DistributedOptions& options) {
  WHISK_CHECK(options.workers >= 1, "distributed workers must be >= 1");
  WHISK_CHECK(options.max_attempts >= 1,
              "distributed max attempts must be >= 1");
  const CampaignSpec spec = raw_spec.normalized();
  const std::size_t n = static_cast<std::size_t>(options.workers);

  std::vector<Worker> workers(n);
  std::vector<ShardPayload> payloads(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers[i].shard = i;
    workers[i].range = spec.shard(i, n);
    spawn_worker(&workers[i], spec, cat, options);
  }

  std::size_t remaining = n;
  while (remaining > 0) {
    std::vector<struct pollfd> fds;
    std::vector<std::pair<std::size_t, bool>> owner;  // worker, is_stdout
    for (std::size_t i = 0; i < n; ++i) {
      if (workers[i].out_fd >= 0) {
        fds.push_back({workers[i].out_fd, POLLIN, 0});
        owner.emplace_back(i, true);
      }
      if (workers[i].err_fd >= 0) {
        fds.push_back({workers[i].err_fd, POLLIN, 0});
        owner.emplace_back(i, false);
      }
    }
    WHISK_CHECK(!fds.empty(), "distributed driver lost track of its workers");
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0 && errno == EINTR) continue;
    WHISK_CHECK(rc > 0, "distributed driver poll failed");

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = workers[owner[k].first];
      if (owner[k].second) {
        drain(&w.out_fd, &w.out);
        if (!w.header_checked) {
          const std::size_t nl = w.out.find('\n');
          if (nl != std::string::npos) {
            check_header(std::string_view(w.out).substr(0, nl), w.range);
            w.header_checked = true;
            if (w.kill_pending) {
              // Crash-injection hook: the header proves the worker is
              // alive and has not yet finished its shard output.
              ::kill(w.pid, SIGKILL);
              w.kill_pending = false;
            }
          }
        }
      } else {
        const std::size_t before = w.err.size();
        drain(&w.err_fd, &w.err);
        if (options.verbose && w.err.size() > before) {
          std::fwrite(w.err.data() + before, 1, w.err.size() - before,
                      stderr);
        }
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      Worker& w = workers[i];
      if (w.done || w.pid < 0 || w.out_fd >= 0 || w.err_fd >= 0) continue;
      int status = 0;
      pid_t reaped;
      do {
        reaped = ::waitpid(w.pid, &status, 0);
      } while (reaped < 0 && errno == EINTR);
      WHISK_CHECK(reaped == w.pid, "distributed driver lost a worker pid");
      w.pid = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        payloads[i] = parse_payload(w.out, w.range);
        w.done = true;
        --remaining;
        continue;
      }
      // Crash (signal) or error exit: replay the captured stderr so the
      // failure is diagnosable, then retry — cells are idempotent, so a
      // re-run of the shard yields byte-identical output.
      if (!options.verbose && !w.err.empty()) {
        std::fprintf(stderr, "[shard %s attempt %d failed]\n",
                     w.range.selector().c_str(), w.attempts);
        std::fwrite(w.err.data(), 1, w.err.size(), stderr);
      }
      WHISK_CHECK(w.attempts < options.max_attempts,
                  "distributed shard kept failing; giving up");
      spawn_worker(&w, spec, cat, options);
    }
  }

  DistributedResult out;
  out.spec = spec;
  out.shards.reserve(n);
  std::vector<CellsPart> csv_parts;
  std::vector<CellsPart> jsonl_parts;
  for (std::size_t i = 0; i < n; ++i) {
    out.shards.push_back({workers[i].range, workers[i].attempts});
    ShardPayload& p = payloads[i];
    const std::string name = "shard " + workers[i].range.selector();
    csv_parts.push_back({name, std::move(p.csv)});
    jsonl_parts.push_back({name, std::move(p.jsonl)});
    out.groups.insert(out.groups.end(), p.groups.begin(), p.groups.end());
    out.peak_worker_rss_kb = std::max(out.peak_worker_rss_kb, p.rss_kb);
  }
  const auto merge = [](const std::vector<CellsPart>& parts) {
    CellsMerge m = merge_cells(parts);
    WHISK_CHECK(m.diagnostic.empty(),
                ("distributed merge: " + m.diagnostic).c_str());
    return std::move(m.merged);
  };
  out.cells_csv = merge(csv_parts);
  out.cells_jsonl = merge(jsonl_parts);
  WHISK_CHECK(out.groups.size() == spec.group_count(),
              "distributed merge did not cover every grid group");
  for (std::size_t g = 0; g < out.groups.size(); ++g) {
    WHISK_CHECK(out.groups[g].group == g,
                "distributed merge produced out-of-order groups");
  }
  return out;
}

CellsMerge merge_cells(const std::vector<CellsPart>& parts) {
  const auto is_jsonl = [](const CellsPart& part) {
    return part.data.empty() || part.data.front() == '{';
  };
  const auto format = [&](const CellsPart& part) {
    return part.data.empty() ? "JSONL (empty)"
           : is_jsonl(part)  ? "JSONL"
                             : "CSV";
  };
  // The first non-empty part fixes the format; all-empty parts are the
  // JSONL of a grid slice with no cells.
  const auto first = std::find_if(
      parts.begin(), parts.end(),
      [](const CellsPart& part) { return !part.data.empty(); });
  if (first == parts.end()) return {};
  const bool jsonl = is_jsonl(*first);
  std::string_view header;
  if (!jsonl) {
    const std::size_t nl = first->data.find('\n');
    if (nl == std::string::npos) {
      return {"", first->name + " has no CSV header row"};
    }
    header = std::string_view(first->data).substr(0, nl + 1);
  }

  CellsMerge out;
  for (const CellsPart& part : parts) {
    if (is_jsonl(part) != jsonl) {
      return {"", part.name + " is " + format(part) + " but " + first->name +
                      " is " + format(*first)};
    }
    if (jsonl) {
      out.merged += part.data;
      continue;
    }
    if (std::string_view(part.data).substr(0, header.size()) != header) {
      return {"", part.name + " does not share the CSV header of " +
                      first->name};
    }
    // The first part brings the header row; the rest add their data rows.
    out.merged.append(part.data, out.merged.empty() ? 0 : header.size(),
                      std::string::npos);
  }
  return out;
}

}  // namespace whisk::experiments
