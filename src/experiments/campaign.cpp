#include "experiments/campaign.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <utility>

#include "experiments/workspace.h"
#include "metrics/csv.h"
#include "metrics/sink.h"
#include "util/check.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace whisk::experiments {
namespace {

std::string overrides_field(const CampaignSpec& spec,
                            const CampaignCell& cell) {
  std::string out;
  for (std::size_t k = 0; k < spec.overrides.size(); ++k) {
    if (!out.empty()) out += ' ';
    out += spec.overrides[k].first + "=" +
           util::fmt_g(spec.overrides[k].second[cell.override_i[k]]);
  }
  return out;
}

// The overrides as the cells JSONL spells them: an object of numbers.
std::string overrides_json(const CampaignSpec& spec,
                           const CampaignCell& cell) {
  std::string out = "\"overrides\":{";
  for (std::size_t k = 0; k < spec.overrides.size(); ++k) {
    if (k > 0) out += ',';
    metrics::append_json_member(
        out, spec.overrides[k].first,
        util::fmt_g(spec.overrides[k].second[cell.override_i[k]]),
        /*numeric=*/true);
  }
  out += '}';
  return out;
}

// How a number is spelled in the cells files: a whole count, or a double
// in one of the two spellings the files have always used.
enum class Format {
  kCount,  // decimal integer
  kShort,  // %g, the ostream default: summaries and the oldest columns
  kG10,    // %.10g, util::fmt_g
};
using enum Format;

// A number rendered on the stack, ready to append as a field value.
struct Number {
  char buf[32];
  std::size_t len = 0;
  [[nodiscard]] std::string_view view() const { return {buf, len}; }
};

// to_chars in chars_format::general at a precision is, by the standard's
// definition, printf's %g at that precision: the same bytes, without the
// format-string parse.
Number spell(Format format, double x) {
  Number n;
  char* const end = n.buf + sizeof n.buf;
  const std::to_chars_result r =
      format == kCount
          ? std::to_chars(n.buf, end, static_cast<unsigned long long>(x))
          : std::to_chars(n.buf, end, x, std::chars_format::general,
                          format == kShort ? 6 : 10);
  n.len = static_cast<std::size_t>(r.ptr - n.buf);
  return n;
}

// One per-cell scalar metric: its column name, its spelling, and where it
// lives in CellResult. Counts travel as doubles, exact far beyond any
// simulated count (2^53).
struct MetricColumn {
  const char* name;
  Format format;
  double (*get)(const CellResult&);
};

template <auto Member>
double field(const CellResult& r) {
  return static_cast<double>(r.*Member);
}

template <auto Member>
double stat(const CellResult& r) {
  return static_cast<double>(r.stats.*Member);
}

// Every scalar metric column of the cells CSV/JSONL and the record context,
// in column order.
constexpr MetricColumn kMetricColumns[] = {
    {"max_completion", kShort, field<&CellResult::max_completion>},
    {"cold_starts", kCount, stat<&node::InvokerStats::cold_starts>},
    {"prewarm_starts", kCount, stat<&node::InvokerStats::prewarm_starts>},
    {"warm_starts", kCount, stat<&node::InvokerStats::warm_starts>},
    {"resubmissions", kCount, field<&CellResult::resubmissions>},
    {"daemon_wait_s", kShort,
     stat<&node::InvokerStats::daemon_queue_wait_seconds>},
    {"daemon_wait_max_s", kShort,
     stat<&node::InvokerStats::daemon_max_queue_wait_seconds>},
    {"cost_usd", kG10, field<&CellResult::cost_usd>},
    {"node_hours", kG10, field<&CellResult::node_hours>},
    {"slo_violations", kCount, field<&CellResult::slo_violations>},
    {"scale_ups", kCount, field<&CellResult::scale_ups>},
    {"scale_downs", kCount, field<&CellResult::scale_downs>},
    {"faults_injected", kCount, field<&CellResult::faults_injected>},
    {"retries", kCount, field<&CellResult::retries>},
    {"timeouts", kCount, field<&CellResult::timeouts>},
    {"hedges_won", kCount, field<&CellResult::hedges_won>},
    {"shed_calls", kCount, field<&CellResult::shed_calls>},
    {"dropped_calls", kCount, field<&CellResult::dropped_calls>},
    {"breaker_opens", kCount, field<&CellResult::breaker_opens>},
    {"unavailability_s", kG10, field<&CellResult::unavailability_s>},
    {"goodput", kG10, field<&CellResult::goodput>},
    {"workflows", kCount, field<&CellResult::workflows>},
    {"wf_e2e_p99", kG10, field<&CellResult::wf_e2e_p99>},
    {"wf_critical_path_s", kG10, field<&CellResult::wf_critical_path_s>},
    {"wf_slack_s", kG10, field<&CellResult::wf_slack_s>},
};

Number spell(const MetricColumn& column, const CellResult& res) {
  return spell(column.format, column.get(res));
}

// A summary's six CSV columns (the header's r_* / s_* runs).
void append_summary_csv(std::string& out, const util::Summary& s) {
  for (double x : {s.mean, s.p50, s.p75, s.p95, s.p99, s.max}) {
    out += ',';
    out += spell(kShort, x).view();
  }
}

void append_summary_json(std::string& out, const util::Summary& s) {
  out += "{\"count\":";
  out += spell(kCount, static_cast<double>(s.count)).view();
  const std::pair<const char*, double> members[] = {
      {"mean", s.mean}, {"p50", s.p50}, {"p75", s.p75},
      {"p95", s.p95},   {"p99", s.p99}, {"max", s.max}};
  for (const auto& [key, x] : members) {
    out += ',';
    metrics::append_json_member(out, key, spell(kShort, x).view(),
                                /*numeric=*/true);
  }
  out += '}';
}

// Per-group telemetry as one CSV-friendly field:
// "big:nodes_ever=2:calls=120:cold=3|small:nodes_ever=4:calls=310:cold=0".
// nodes_ever counts every node the group ever had (joins included) — a
// deliberately different name from the row's `nodes` column, which is the
// fleet size at t=0.
std::string groups_field(const std::vector<cluster::GroupStats>& groups) {
  std::string out;
  for (const auto& g : groups) {
    if (!out.empty()) out += '|';
    out += g.name + ":nodes_ever=" + std::to_string(g.nodes) +
           ":calls=" + std::to_string(g.stats.calls_completed) +
           ":cold=" + std::to_string(g.stats.cold_starts);
  }
  return out;
}

// Where CampaignSpec::coordinate_fields puts the two coordinates that
// change inside a group.
constexpr std::size_t kCellField = 0;
constexpr std::size_t kSeedField = 3;

// Fold the cells' bounded streams in cell order. A cell that kept its
// samples has an empty stream, so folding it would lose them: abort.
metrics::StreamingSummary fold_streams(
    std::span<const CellResult> cells,
    std::vector<double> CellResult::*samples,
    metrics::StreamingSummary CellResult::*stream, const char* message) {
  metrics::StreamingSummary agg(
      cells.empty() ? 0 : (cells.front().*stream).reservoir.capacity());
  for (const CellResult& cell : cells) {
    WHISK_CHECK((cell.*samples).empty(), message);
    agg.merge(cell.*stream);
  }
  return agg;
}

// Keeps `fields` on the coordinate fields of cell `index`, across the rows
// of one renderer. Inside a group only `cell` and `seed` change (seeds are
// the innermost axis), so the fields are rebuilt when the group changes and
// otherwise only those two are re-spelled. True when the group changed.
bool row_coordinates(const CampaignSpec& spec, std::size_t index,
                     std::size_t& group,
                     std::vector<metrics::RunContextField>& fields) {
  const std::size_t per = spec.seeds_per_group();
  if (fields.empty() || group != index / per) {
    group = index / per;
    fields = spec.coordinate_fields(spec.coordinates(index));
    return true;
  }
  fields[kCellField].value = std::to_string(index);
  fields[kSeedField].value = std::to_string(spec.seeds[index % per]);
  return false;
}

void append_number(std::string& out, std::uint64_t x) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, x).ptr);
}

}  // namespace

util::Summary CellResult::response_summary() const {
  if (response.count == ok_calls) return response;
  if (responses.size() == ok_calls) return util::summarize(responses);
  return response_stream.summary();
}

util::Summary CellResult::stretch_summary() const {
  if (stretch.count == ok_calls) return stretch;
  if (stretches.size() == ok_calls) return util::summarize(stretches);
  return stretch_stream.summary();
}

std::span<const CellResult> CampaignResult::group(std::size_t g) const {
  WHISK_CHECK(g < group_count(), "campaign group index out of range");
  const std::size_t per = spec.seeds_per_group();
  return {cells.data() + g * per, per};
}

std::string CampaignResult::group_label(std::size_t g) const {
  WHISK_CHECK(g < group_count(), "campaign group index out of range");
  return spec.label(spec.coordinates(global_group(g) *
                                     spec.seeds_per_group()),
                    /*with_seed=*/false);
}

GroupSummary CampaignResult::group_summary(std::size_t g) const {
  const std::span<const CellResult> members = group(g);
  GroupSummary out;
  out.group = global_group(g);
  bool kept = true;
  for (const CellResult& c : members) {
    out.calls += c.calls;
    out.ok_calls += c.ok_calls;
    kept = kept && c.responses.size() == c.ok_calls;
  }
  out.cold_starts = total_stats(members).cold_starts;
  out.max_completion = max_completion(members);
  out.response = kept ? util::summarize(pooled_responses(members))
                      : aggregate_responses(members).summary();
  out.stretch = kept ? util::summarize(pooled_stretches(members))
                     : aggregate_stretches(members).summary();
  return out;
}

metrics::RunContext cell_context(const CampaignSpec& spec,
                                 const CampaignCell& cell,
                                 const CellResult& result) {
  metrics::RunContext ctx;
  ctx.fields = spec.coordinate_fields(cell);
  for (std::size_t k = 0; k < spec.overrides.size(); ++k) {
    ctx.fields.push_back(
        {"override:" + spec.overrides[k].first,
         util::fmt_g(spec.overrides[k].second[cell.override_i[k]]),
         /*numeric=*/true});
  }
  for (const MetricColumn& column : kMetricColumns) {
    ctx.fields.push_back({column.name,
                          std::string(spell(column, result).view()),
                          /*numeric=*/true});
  }
  return ctx;
}

CampaignResult run_campaign(const CampaignSpec& raw_spec,
                            const workload::FunctionCatalog& cat,
                            const CampaignOptions& options) {
  const CampaignSpec spec = raw_spec.normalized();
  // Resolve the slice to run: the whole grid unless the options carry a
  // shard. A shard from a different grid (or hand-rolled) is a caller bug;
  // catch it loudly rather than run the wrong cells.
  const ShardRange shard =
      options.shard ? *options.shard : spec.shard(0, 1);
  WHISK_CHECK(shard.begin_group <= shard.end_group &&
                  shard.end_group <= spec.group_count(),
              "campaign shard range does not fit this grid");
  WHISK_CHECK(shard.seeds_per_group == spec.seeds_per_group(),
              "campaign shard was built for a different seed axis");
  const std::size_t total = shard.cells();
  const int threads = options.threads == 0
                          ? util::ThreadPool::hardware_threads()
                          : options.threads;
  WHISK_CHECK(threads >= 1, "campaign threads must be >= 1 (or 0 for auto)");
  // An empty reservoir would report every quantile as 0 next to a real
  // count, mean and max.
  WHISK_CHECK(options.reservoir_capacity > 0,
              "campaign reservoir capacity must be > 0");

  CampaignResult out;
  out.spec = spec;
  out.shard = shard;
  out.cells.resize(total);

  // One reusable workspace per worker: warm engine arena, recycled
  // collector columns, memoized scenarios. Worker-local by construction,
  // so the hot path shares no mutable state between threads (the one
  // mutex below guards only the post-cell flush bookkeeping).
  const bool want_records =
      options.retain_records || options.pipeline != nullptr;
  std::vector<CellWorkspace> workspaces(
      std::min(static_cast<std::size_t>(threads), total));

  // Flush/progress state; cells finish in schedule order, the pipeline
  // consumes them in index order. `flushing` elects one worker to stream
  // the ready prefix *outside* the lock, so pipeline file I/O never blocks
  // the other workers from completing cells.
  std::mutex mutex;
  std::vector<char> finished(total, 0);
  std::size_t done = 0;
  std::size_t next_flush = 0;
  bool flushing = false;

  // `i` is shard-local (slot in out.cells); the cell itself — coordinates,
  // seed, CSV index — is the global one, so shard output matches the
  // corresponding slice of an unsharded run byte for byte.
  auto run_cell = [&](std::size_t i, CellWorkspace& ws) {
    const std::size_t global = shard.begin_cell() + i;
    const CampaignCell cell = spec.cell(global);
    CellResult& res = out.cells[i];
    res = ws.run(cell.spec, cat, want_records);
    res.index = global;
    if (options.retain_samples) {
      res.response = util::summarize(res.responses);
      res.stretch = util::summarize(res.stretches);
    } else {
      res.response_stream =
          metrics::StreamingSummary(options.reservoir_capacity);
      res.stretch_stream =
          metrics::StreamingSummary(options.reservoir_capacity);
      res.response_stream.reservoir.reserve(res.ok_calls);
      res.stretch_stream.reservoir.reserve(res.ok_calls);
      for (double r : res.responses) res.response_stream.add(r);
      for (double s : res.stretches) res.stretch_stream.add(s);
      res.response = res.response_stream.summary();
      res.stretch = res.stretch_stream.summary();
      // Free the buffers, not only the elements (`= {}` would keep them):
      // every cell holds its slot until the campaign returns.
      res.responses = std::vector<double>();
      res.stretches = std::vector<double>();
    }

    std::unique_lock<std::mutex> lock(mutex);
    finished[i] = 1;
    ++done;
    if (options.progress) options.progress(done, total);
    if (options.pipeline != nullptr && !flushing) {
      flushing = true;
      while (next_flush < total && finished[next_flush] != 0) {
        const std::size_t idx = next_flush++;  // claimed; release the lock
        lock.unlock();
        CellResult& ready = out.cells[idx];  // finished: no other writer
        options.pipeline->begin_run(cell_context(
            spec, spec.coordinates(shard.begin_cell() + idx), ready));
        for (const auto& rec : ready.records) {
          options.pipeline->consume(rec);
        }
        options.pipeline->end_run();
        if (!options.retain_records) {
          ready.records = std::vector<metrics::CallRecord>();
        }
        lock.lock();
      }
      flushing = false;
    }
  };

  util::ThreadPool::parallel_for(
      total, threads, [&](std::size_t i, int worker) {
        run_cell(i, workspaces[static_cast<std::size_t>(worker)]);
      });
  return out;
}

std::vector<double> pooled_responses(std::span<const CellResult> cells) {
  std::vector<double> out;
  for (const auto& cell : cells) {
    WHISK_CHECK(cell.responses.size() == cell.ok_calls,
                "pooled_responses needs a campaign run with retain_samples");
    out.insert(out.end(), cell.responses.begin(), cell.responses.end());
  }
  return out;
}

std::vector<double> pooled_stretches(std::span<const CellResult> cells) {
  std::vector<double> out;
  for (const auto& cell : cells) {
    WHISK_CHECK(cell.stretches.size() == cell.ok_calls,
                "pooled_stretches needs a campaign run with retain_samples");
    out.insert(out.end(), cell.stretches.begin(), cell.stretches.end());
  }
  return out;
}

metrics::StreamingSummary aggregate_responses(
    std::span<const CellResult> cells) {
  return fold_streams(cells, &CellResult::responses,
                      &CellResult::response_stream,
                      "aggregate_responses needs a campaign run without "
                      "retain_samples");
}

metrics::StreamingSummary aggregate_stretches(
    std::span<const CellResult> cells) {
  return fold_streams(cells, &CellResult::stretches,
                      &CellResult::stretch_stream,
                      "aggregate_stretches needs a campaign run without "
                      "retain_samples");
}

double max_completion(std::span<const CellResult> cells) {
  double m = 0.0;
  for (const auto& cell : cells) m = std::max(m, cell.max_completion);
  return m;
}

node::InvokerStats total_stats(std::span<const CellResult> cells) {
  node::InvokerStats sum;
  for (const auto& cell : cells) sum.merge(cell.stats);
  return sum;
}

// Both cell renderers lay a row out the same way: the coordinates, the
// overrides, calls and the response/stretch summaries, every metric column,
// then the per-group telemetry. Only overrides, summaries and groups have a
// nested shape; everything else goes through the shared field rules.

std::string cells_csv(const CampaignResult& result) {
  const CampaignSpec& spec = result.spec;
  std::string out;
  for (const auto& field : spec.coordinate_fields(spec.coordinates(0))) {
    metrics::append_csv_field(out, field.key);
    out += ',';
  }
  out += "overrides,calls,r_mean,r_p50,r_p75,r_p95,r_p99,r_max,"
         "s_mean,s_p50,s_p75,s_p95,s_p99,s_max";
  for (const MetricColumn& column : kMetricColumns) {
    out += ',';
    out += column.name;
  }
  out += ",groups\n";
  std::size_t group = 0;
  std::vector<metrics::RunContextField> fields;
  std::string overrides;
  for (const auto& res : result.cells) {
    if (row_coordinates(spec, res.index, group, fields)) {
      overrides = overrides_field(spec, spec.coordinates(res.index));
    }
    for (const auto& field : fields) {
      metrics::append_csv_field(out, field.value);
      out += ',';
    }
    metrics::append_csv_field(out, overrides);
    out += ',';
    out += spell(kCount, static_cast<double>(res.calls)).view();
    append_summary_csv(out, res.response_summary());
    append_summary_csv(out, res.stretch_summary());
    for (const MetricColumn& column : kMetricColumns) {
      out += ',';
      out += spell(column, res).view();
    }
    out += ',';
    metrics::append_csv_field(out, groups_field(res.groups));
    out += '\n';
  }
  return out;
}

std::string cells_jsonl(const CampaignResult& result) {
  const CampaignSpec& spec = result.spec;
  std::string out;
  std::size_t group = 0;
  std::vector<metrics::RunContextField> fields;
  std::string overrides;
  for (const auto& res : result.cells) {
    if (row_coordinates(spec, res.index, group, fields)) {
      overrides = overrides_json(spec, spec.coordinates(res.index));
    }
    out += '{';
    for (const auto& field : fields) {
      metrics::append_json_member(out, field.key, field.value, field.numeric);
      out += ',';
    }
    out += overrides;
    out += ",\"calls\":";
    out += spell(kCount, static_cast<double>(res.calls)).view();
    out += ",\"response\":";
    append_summary_json(out, res.response_summary());
    out += ",\"stretch\":";
    append_summary_json(out, res.stretch_summary());
    for (const MetricColumn& column : kMetricColumns) {
      out += ',';
      metrics::append_json_member(out, column.name, spell(column, res).view(),
                                  /*numeric=*/true);
    }
    out += ",\"groups\":[";
    for (std::size_t g = 0; g < res.groups.size(); ++g) {
      if (g > 0) out += ',';
      const auto& group = res.groups[g];
      out += '{';
      metrics::append_json_member(out, "name", group.name, /*numeric=*/false);
      out += ",\"nodes_ever\":";
      append_number(out, group.nodes);
      out += ",\"calls\":";
      append_number(out, group.stats.calls_completed);
      out += ",\"cold_starts\":";
      append_number(out, group.stats.cold_starts);
      out += '}';
    }
    out += "]}\n";
  }
  return out;
}

}  // namespace whisk::experiments
