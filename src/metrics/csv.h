#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/record.h"
#include "workload/function.h"

namespace whisk::metrics {

// The per-call record columns, in the paper's notation. Shared by write_csv
// and CsvSink so every exporter emits the same schema.
inline constexpr const char* kCallRecordCsvHeader =
    "id,function,node,release,received,exec_start,exec_end,completion,"
    "service,start_kind,response,stretch";

// One record as one CSV row (terminated by '\n'), matching the header.
void write_csv_row(std::ostream& out, const CallRecord& r,
                   const workload::FunctionCatalog& catalog);

// Append one free-form field to a CSV row, quoted only when it needs it
// (spec strings can hold commas, e.g. a weighted mix's weights=1,2).
// Shared by every CSV emitter.
void append_csv_field(std::string& out, std::string_view value);

// CSV export of per-call records for offline analysis (pandas/R). One row
// per call with the paper's notation in the header.
void write_csv(std::ostream& out, const std::vector<CallRecord>& records,
               const workload::FunctionCatalog& catalog);

// Convenience: render to a string (used by tests and small tools).
[[nodiscard]] std::string to_csv(const std::vector<CallRecord>& records,
                                 const workload::FunctionCatalog& catalog);

}  // namespace whisk::metrics
