#include "util/component_spec.h"

#include <gtest/gtest.h>

namespace whisk::util {
namespace {

TEST(ParamRange, EveryBoundForm) {
  EXPECT_FALSE(in_range(0.0, "> 0"));
  EXPECT_TRUE(in_range(1e-300, "> 0"));
  EXPECT_TRUE(in_range(1.0, ">= 1"));
  EXPECT_FALSE(in_range(0.999, ">= 1"));
  EXPECT_TRUE(in_range(1e6, "<= 1000000"));
  EXPECT_FALSE(in_range(1e6 + 1, "<= 1000000"));
  EXPECT_FALSE(in_range(1.0, "< 1"));
  EXPECT_TRUE(in_range(0.0, "[0, 1)"));
  EXPECT_FALSE(in_range(1.0, "[0, 1)"));
  EXPECT_FALSE(in_range(0.0, "(0, 1]"));
  EXPECT_TRUE(in_range(1.0, "(0, 1]"));
  EXPECT_TRUE(in_range(-1e300, ""));
}

TEST(ParamRangeDeath, MalformedBoundsAbort) {
  EXPECT_DEATH((void)in_range(1.0, "= 3"), "bad parameter range");
  EXPECT_DEATH((void)in_range(1.0, "[0, x]"), "bad parameter range");
  const std::vector<ParamDecl> bad = {number_param("rate", 1, "> fast", "")};
  EXPECT_DEATH((ParamReader{{{"rate", "2"}}, bad, "test", "t"}.check()),
               "bad parameter range \"> fast\"");
}

TEST(ParamDecl, DisplayDefaultIsRenderedFromTheTypedDefault) {
  const auto rate = number_param("rate", 0.85, "> 0", "help");
  EXPECT_EQ(rate.default_value, "0.85");
  EXPECT_EQ(rate.type, ParamDecl::Type::kNumber);
  EXPECT_EQ(count_param("cap", 1000000, "", "help").default_value, "1000000");
  EXPECT_EQ(text_param("mix", "round-robin", "help").default_value,
            "round-robin");
  const auto period = derived_param(ParamDecl::Type::kNumber, "period",
                                    "window", "> 0", "help");
  EXPECT_EQ(period.default_value, "window");
  EXPECT_FALSE(period.fallback.has_value());
}

const std::vector<ParamDecl>& table() {
  static const std::vector<ParamDecl> kTable = {
      number_param("rate", 30, "> 0", "arrivals per second"),
      count_param("stages", 4, ">= 1", "stages"),
      text_param("mode", "root", "mode"),
      derived_param(ParamDecl::Type::kNumber, "period", "window", "> 0",
                    "cycle"),
  };
  return kTable;
}

ParamReader reader(const ParamMap& params, std::string_view kind = "test",
                   std::string_view name = "t") {
  return {params, table(), kind, name};
}

TEST(ParamReader, UnsetKeysYieldTheDeclaredDefault) {
  const ParamMap params = {{"stages", "7"}};
  EXPECT_EQ(reader(params).number("rate"), 30.0);
  EXPECT_EQ(reader(params).count("stages"), 7u);
  EXPECT_EQ(reader(params).text("mode"), "root");
  EXPECT_EQ(reader(params).number("period", 12.5), 12.5);
  reader({{"rate", "0.5"}, {"stages", "1"}, {"mode", "anything"}}).check();
}

TEST(ParamReaderDeath, ChecksQuoteTheInputText) {
  EXPECT_DEATH(reader({{"rate", "-1e-7"}}, "scenario", "p").check(),
               "scenario \"p\": rate must be > 0, got \"-1e-7\"");
  EXPECT_DEATH(reader({{"stages", "0"}}, "workflow", "c").check(),
               "workflow \"c\": stages must be >= 1, got \"0\"");
  EXPECT_DEATH(reader({{"stages", "two"}}, "workflow", "c").check(),
               "stages=\"two\" is not a whole number >= 0");
  EXPECT_DEATH((void)reader({}, "fault", "f").number("warp"),
               "fault \"f\" reads undeclared parameter \"warp\"");
  // A derived default has no declared value; its reader passes one.
  EXPECT_DEATH((void)reader({}).number("period"),
               "period has a derived default");
  // A read without a fallback must match the declared type.
  EXPECT_DEATH((void)reader({}).number("mode"), "mode is text");
  EXPECT_DEATH((void)reader({}).count("mode"), "mode is text");
  EXPECT_DEATH((void)reader({}).text("rate"), "rate is typed");
}

}  // namespace
}  // namespace whisk::util
