#include "metrics/csv.h"

#include <ostream>
#include <sstream>

namespace whisk::metrics {

void write_csv_row(std::ostream& out, const CallRecord& r,
                   const workload::FunctionCatalog& catalog) {
  const double stretch = r.response() / catalog.reference_median(r.function);
  out << r.id << ',' << catalog.spec(r.function).name << ',' << r.node << ','
      << r.release << ',' << r.received << ',' << r.exec_start << ','
      << r.exec_end << ',' << r.completion << ',' << r.service << ','
      << to_string(r.start_kind) << ',' << r.response() << ',' << stretch
      << '\n';
}

void append_csv_field(std::string& out, std::string_view value) {
  if (value.find_first_of(",\"\n") == std::string_view::npos) {
    out += value;
    return;
  }
  out += '"';
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void write_csv(std::ostream& out, const std::vector<CallRecord>& records,
               const workload::FunctionCatalog& catalog) {
  out << kCallRecordCsvHeader << '\n';
  for (const auto& r : records) write_csv_row(out, r, catalog);
}

std::string to_csv(const std::vector<CallRecord>& records,
                   const workload::FunctionCatalog& catalog) {
  std::ostringstream out;
  write_csv(out, records, catalog);
  return out.str();
}

}  // namespace whisk::metrics
