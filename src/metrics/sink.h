#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/record.h"
#include "util/reservoir.h"
#include "util/stats.h"
#include "workload/function.h"

namespace whisk::metrics {

// One key/value pair describing the run to the sinks. `numeric` marks
// values that are numbers, so JSON emitters can write "seed":3 instead of
// "seed":"3" (matching cells_jsonl); CSV output is unaffected.
struct RunContextField {
  std::string key;
  std::string value;
  bool numeric = false;
};

// Identifies one run (e.g. a campaign cell) to the sinks: ordered fields
// like {"cell","7"}, {"scheduler","ours/sept"}, {"seed","3"}. File sinks
// render them as leading CSV columns / JSON fields; the key schema must be
// identical across every run of one pipeline.
struct RunContext {
  std::vector<RunContextField> fields;
};

// Escape a string for embedding in a JSON string literal (quotes,
// backslashes, control characters). Shared by every JSONL emitter — spec
// values are verbatim user input (trace file paths can hold anything).
[[nodiscard]] std::string json_escape(std::string_view value);

// One JSON member, `"key":value`, appended to `out`: numeric values bare,
// every other value a quoted, escaped string. The member rule JsonlSink
// applies to RunContext fields and cells_jsonl to cell rows.
void append_json_member(std::string& out, std::string_view key,
                        std::string_view value, bool numeric);

// One consumer of completed-call records. A run is a begin_run/on_record*/
// end_run bracket; sinks are fed strictly in run order (the campaign runner
// reorders parallel cells back into cell-index order before flushing), so a
// sink never needs locking.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void begin_run(const RunContext& ctx) { (void)ctx; }
  virtual void on_record(const CallRecord& record) = 0;
  virtual void end_run() {}
};

// Fan-out over an owned set of sinks — the composable replacement for
// "buffer everything in a Collector, query later": each record is offered
// to every sink once and can then be dropped.
class MetricsPipeline {
 public:
  // Returns a borrowed pointer for querying the sink after the run.
  Sink* add(std::unique_ptr<Sink> sink);

  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto sink = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = sink.get();
    add(std::move(sink));
    return raw;
  }

  void begin_run(const RunContext& ctx);
  void consume(const CallRecord& record);
  void end_run();

  [[nodiscard]] std::size_t size() const { return sinks_.size(); }

 private:
  std::vector<std::unique_ptr<Sink>> sinks_;
};

// --- full-record file sinks --------------------------------------------------

// Per-call CSV rows. With an empty RunContext the output is byte-identical
// to metrics::write_csv (the paper-pin format); context fields become
// leading columns. The header is written on the first begin_run.
class CsvSink final : public Sink {
 public:
  CsvSink(std::ostream& out, const workload::FunctionCatalog& catalog)
      : out_(&out), catalog_(&catalog) {}

  void begin_run(const RunContext& ctx) override;
  void on_record(const CallRecord& record) override;

 private:
  std::ostream* out_;
  const workload::FunctionCatalog* catalog_;
  std::string prefix_;  // rendered context columns for the current run
  bool header_written_ = false;
  std::vector<std::string> header_keys_;  // schema check across runs
};

// Per-call JSON Lines: one self-describing object per record, context
// fields inlined. The format downstream notebooks stream without caring
// about column order.
class JsonlSink final : public Sink {
 public:
  JsonlSink(std::ostream& out, const workload::FunctionCatalog& catalog)
      : out_(&out), catalog_(&catalog) {}

  void begin_run(const RunContext& ctx) override;
  void on_record(const CallRecord& record) override;

 private:
  std::ostream* out_;
  const workload::FunctionCatalog* catalog_;
  std::string prefix_;  // rendered context members for the current run
};

// --- bounded-memory summaries ------------------------------------------------

// StreamingStats (exact count/mean/min/max/stddev) plus a fixed-size
// reservoir for the order statistics — the bounded-memory stand-in for
// util::summarize over a retained sample. Exact while the stream fits the
// reservoir; beyond that the quantiles are estimates over a uniform
// subsample.
struct StreamingSummary {
  explicit StreamingSummary(std::size_t reservoir_capacity = 4096,
                            std::uint64_t seed = 0)
      : reservoir(reservoir_capacity, seed) {}

  void add(double x) {
    stats.add(x);
    reservoir.add(x);
  }

  // Deterministic fold (merge groups in cell order).
  void merge(const StreamingSummary& other) {
    stats.merge(other.stats);
    reservoir.merge(other.reservoir);
  }

  [[nodiscard]] bool exact() const { return reservoir.exact(); }
  [[nodiscard]] util::Summary summary() const;

  util::StreamingStats stats;
  util::Reservoir reservoir;
};

}  // namespace whisk::metrics
