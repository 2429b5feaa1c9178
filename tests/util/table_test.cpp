#include "util/table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace whisk::util {
namespace {

TEST(Table, RendersHeaderAndRule) {
  Table t({"a", "bb"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CountsRowsAndCols) {
  Table t({"x", "y", "z"});
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1", "2", "3"});
  t.add_row({"4", "5", "6"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ColumnsAlignToWidestCell) {
  Table t({"col"});
  t.add_row({"wide-value"});
  t.add_row({"x"});
  const std::string out = t.to_string();
  // Every line must have the same length (fixed layout).
  std::size_t expected = 0;
  std::size_t start = 0;
  bool first = true;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    const std::size_t len = end - start;
    if (first) {
      expected = len;
      first = false;
    } else {
      EXPECT_EQ(len, expected);
    }
    start = end + 1;
  }
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(-1.5, 1), "-1.5");
}

TEST(Table, FmtRange) {
  EXPECT_EQ(fmt_range(0.59, 0.66), "0.59-0.66");
  EXPECT_EQ(fmt_range(1.0, 2.0, 1), "1.0-2.0");
}

// fmt_g spells through std::to_chars, which the standard defines as
// printf's %.10g: check edge values and random bit patterns.
TEST(Table, FmtGMatchesPrintf) {
  auto printf_g10 = [](double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", x);
    return std::string(buf);
  };
  for (double x : {0.0, -0.0, 1e-5, 1e-4, 999999.5, 1e300, 5e-324, HUGE_VAL,
                   -HUGE_VAL, 9999999999.5, 0.1, 32768.0}) {
    EXPECT_EQ(fmt_g(x), printf_g10(x)) << x;
  }
  std::uint64_t state = 1;
  for (int i = 0; i < 100000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double x = std::bit_cast<double>(state);
    if (std::isnan(x)) continue;
    ASSERT_EQ(fmt_g(x), printf_g10(x)) << i;
  }
}

}  // namespace
}  // namespace whisk::util
