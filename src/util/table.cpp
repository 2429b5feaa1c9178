#include "util/table.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace whisk::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  WHISK_CHECK(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  WHISK_CHECK(row.size() == header_.size(),
              "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << "  ";
      out << std::string(width[c] - row[c].size(), ' ') << row[c];
    }
    out << '\n';
  };

  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c ? 2 : 0);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_range(double lo, double hi, int precision) {
  return fmt(lo, precision) + "-" + fmt(hi, precision);
}

std::string fmt_g(double value) {
  // to_chars in general format at precision 10 is %.10g by definition.
  char buf[64];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, value, std::chars_format::general, 10);
  return std::string(buf, r.ptr);
}

}  // namespace whisk::util
