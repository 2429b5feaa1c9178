#include "metrics/sink.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "metrics/csv.h"
#include "util/check.h"

namespace whisk::metrics {

namespace {

bool needs_json_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void append_json_escaped(std::string& out, std::string_view value) {
  // Most keys and values have nothing to escape: append them in one go.
  const auto clean = static_cast<std::size_t>(
      std::find_if(value.begin(), value.end(), needs_json_escape) -
      value.begin());
  out += value.substr(0, clean);
  for (char c : value.substr(clean)) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        // RFC 8259: every control character below 0x20 must be escaped.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  append_json_escaped(out, value);
  return out;
}

void append_json_member(std::string& out, std::string_view key,
                        std::string_view value, bool numeric) {
  out += '"';
  append_json_escaped(out, key);
  out += "\":";
  if (numeric) {
    out += value;
    return;
  }
  out += '"';
  append_json_escaped(out, value);
  out += '"';
}

Sink* MetricsPipeline::add(std::unique_ptr<Sink> sink) {
  WHISK_CHECK(sink != nullptr, "cannot add a null sink");
  sinks_.push_back(std::move(sink));
  return sinks_.back().get();
}

void MetricsPipeline::begin_run(const RunContext& ctx) {
  for (auto& s : sinks_) s->begin_run(ctx);
}

void MetricsPipeline::consume(const CallRecord& record) {
  for (auto& s : sinks_) s->on_record(record);
}

void MetricsPipeline::end_run() {
  for (auto& s : sinks_) s->end_run();
}

// --- CsvSink -----------------------------------------------------------------

void CsvSink::begin_run(const RunContext& ctx) {
  std::vector<std::string> keys;
  keys.reserve(ctx.fields.size());
  for (const auto& field : ctx.fields) keys.push_back(field.key);
  if (!header_written_) {
    header_keys_ = keys;
    std::string header;
    for (const auto& key : header_keys_) {
      append_csv_field(header, key);
      header += ',';
    }
    *out_ << header << kCallRecordCsvHeader << '\n';
    header_written_ = true;
  } else {
    WHISK_CHECK(keys == header_keys_,
                "CsvSink: run context keys changed between runs; one "
                "pipeline writes one schema");
  }
  prefix_.clear();
  for (const auto& field : ctx.fields) {
    append_csv_field(prefix_, field.value);
    prefix_ += ',';
  }
}

void CsvSink::on_record(const CallRecord& record) {
  if (!header_written_) {
    // Used without begin_run (plain per-run export): plain record schema.
    *out_ << kCallRecordCsvHeader << '\n';
    header_written_ = true;
  }
  *out_ << prefix_;
  write_csv_row(*out_, record, *catalog_);
}

// --- JsonlSink ---------------------------------------------------------------

void JsonlSink::begin_run(const RunContext& ctx) {
  prefix_.clear();
  for (const auto& field : ctx.fields) {
    append_json_member(prefix_, field.key, field.value, field.numeric);
    prefix_ += ',';
  }
}

void JsonlSink::on_record(const CallRecord& record) {
  const double stretch =
      record.response() / catalog_->reference_median(record.function);
  std::ostringstream row;
  row << '{' << prefix_ << "\"id\":" << record.id << ",\"function\":\""
      << json_escape(catalog_->spec(record.function).name)
      << "\",\"node\":" << record.node << ",\"release\":" << record.release
      << ",\"received\":" << record.received
      << ",\"exec_start\":" << record.exec_start
      << ",\"exec_end\":" << record.exec_end
      << ",\"completion\":" << record.completion
      << ",\"service\":" << record.service << ",\"start_kind\":\""
      << to_string(record.start_kind) << "\",\"attempts\":" << record.attempts
      << ",\"response\":" << record.response() << ",\"stretch\":" << stretch;
  // Emitted only on shed/dropped records so fault-free runs stay
  // byte-identical to the pre-disposition output.
  if (record.disposition != Disposition::kOk) {
    row << ",\"disposition\":\"" << to_string(record.disposition) << '"';
  }
  row << "}\n";
  *out_ << row.str();
}

// --- StreamingSummary --------------------------------------------------------

util::Summary StreamingSummary::summary() const {
  util::Summary s;
  s.count = stats.count();
  if (s.count == 0) return s;
  s.mean = stats.mean();
  s.min = stats.min();
  s.max = stats.max();
  s.stddev = stats.stddev();
  std::vector<double> scratch = reservoir.samples();
  util::fill_percentiles(scratch, s);
  return s;
}

}  // namespace whisk::metrics
