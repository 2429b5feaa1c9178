#include "metrics/sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "metrics/csv.h"
#include "util/stats.h"

namespace whisk::metrics {
namespace {

CallRecord rec(workload::CallId id, workload::FunctionId fn, double release,
               double completion, StartKind kind = StartKind::kWarm) {
  CallRecord r;
  r.id = id;
  r.function = fn;
  r.node = 0;
  r.release = release;
  r.received = release + 0.005;
  r.exec_start = release + 0.01;
  r.exec_end = completion - 0.01;
  r.completion = completion;
  r.service = r.exec_end - r.exec_start;
  r.start_kind = kind;
  return r;
}

class SinkTest : public ::testing::Test {
 protected:
  // A deterministic varied record stream over three functions.
  std::vector<CallRecord> stream(int n) {
    std::vector<CallRecord> out;
    const workload::FunctionId fns[] = {*cat_.find("graph-bfs"),
                                        *cat_.find("sleep"),
                                        *cat_.find("dna-visualisation")};
    for (int i = 0; i < n; ++i) {
      const double release = 0.1 * i;
      const double response = 0.05 + 0.01 * ((i * 7) % 23);
      out.push_back(rec(i, fns[i % 3], release, release + response));
    }
    return out;
  }

  workload::FunctionCatalog cat_ = workload::sebs_catalog();
};

TEST_F(SinkTest, StreamingSummaryMatchesSummarizeExactlyWhileExact) {
  // The bounded-memory summary equals util::summarize on the retained
  // sample, exactly, for n <= reservoir capacity.
  const auto records = stream(50);
  StreamingSummary response(/*reservoir_capacity=*/64);
  StreamingSummary stretch(/*reservoir_capacity=*/64);
  std::vector<double> responses;
  std::vector<double> stretches;
  for (const auto& r : records) {
    const double s = r.response() / cat_.reference_median(r.function);
    response.add(r.response());
    stretch.add(s);
    responses.push_back(r.response());
    stretches.push_back(s);
  }
  ASSERT_TRUE(response.exact());

  const util::Summary exact_r = util::summarize(responses);
  const util::Summary got_r = response.summary();
  EXPECT_EQ(got_r.count, exact_r.count);
  // Quantiles come from the full retained sample: bit-exact.
  EXPECT_DOUBLE_EQ(got_r.p25, exact_r.p25);
  EXPECT_DOUBLE_EQ(got_r.p50, exact_r.p50);
  EXPECT_DOUBLE_EQ(got_r.p75, exact_r.p75);
  EXPECT_DOUBLE_EQ(got_r.p95, exact_r.p95);
  EXPECT_DOUBLE_EQ(got_r.p99, exact_r.p99);
  EXPECT_DOUBLE_EQ(got_r.min, exact_r.min);
  EXPECT_DOUBLE_EQ(got_r.max, exact_r.max);
  // Mean/stddev accumulate by Welford instead of a naive sum: equal to
  // floating-point noise.
  EXPECT_NEAR(got_r.mean, exact_r.mean, 1e-12);
  EXPECT_NEAR(got_r.stddev, exact_r.stddev, 1e-9);

  const util::Summary exact_s = util::summarize(stretches);
  const util::Summary got_s = stretch.summary();
  EXPECT_DOUBLE_EQ(got_s.p50, exact_s.p50);
  EXPECT_NEAR(got_s.mean, exact_s.mean, 1e-12);
}

TEST_F(SinkTest, StreamingSummaryStaysCloseBeyondTheReservoir) {
  const auto records = stream(5000);
  StreamingSummary response(/*reservoir_capacity=*/256);
  std::vector<double> responses;
  for (const auto& r : records) {
    response.add(r.response());
    responses.push_back(r.response());
  }
  EXPECT_FALSE(response.exact());

  const util::Summary exact = util::summarize(responses);
  const util::Summary got = response.summary();
  // Count/mean/min/max/stddev are exact regardless of the reservoir.
  EXPECT_EQ(got.count, exact.count);
  EXPECT_NEAR(got.mean, exact.mean, 1e-12);
  EXPECT_DOUBLE_EQ(got.min, exact.min);
  EXPECT_DOUBLE_EQ(got.max, exact.max);
  // Quantiles are estimates over a uniform subsample; the stream spans
  // [0.05, 0.27], so a loose absolute envelope is meaningful.
  EXPECT_NEAR(got.p50, exact.p50, 0.05);
  EXPECT_NEAR(got.p95, exact.p95, 0.05);
}

TEST_F(SinkTest, StreamingSummaryMergeAggregatesGroups) {
  const auto records = stream(40);
  StreamingSummary all(64);
  StreamingSummary left(64);
  StreamingSummary right(64);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const double r = records[i].response();
    all.add(r);
    (i < 15 ? left : right).add(r);
  }
  left.merge(right);
  const auto a = all.summary();
  const auto m = left.summary();
  EXPECT_EQ(m.count, a.count);
  EXPECT_NEAR(m.mean, a.mean, 1e-12);
  EXPECT_DOUBLE_EQ(m.min, a.min);
  EXPECT_DOUBLE_EQ(m.max, a.max);
  // Both exact: the merged sample is the concatenated stream.
  EXPECT_DOUBLE_EQ(m.p50, a.p50);
}

TEST_F(SinkTest, CsvSinkWithoutContextMatchesWriteCsv) {
  const auto records = stream(20);
  std::ostringstream via_sink;
  CsvSink sink(via_sink, cat_);
  sink.begin_run(RunContext{});
  for (const auto& r : records) sink.on_record(r);
  sink.end_run();
  // The paper-pin format: byte-identical to the Collector-era exporter
  // (modulo the context columns, of which there are none here).
  EXPECT_EQ(via_sink.str(), to_csv(records, cat_));
}

TEST_F(SinkTest, CsvSinkPrependsContextColumns) {
  std::ostringstream out;
  CsvSink sink(out, cat_);
  RunContext ctx;
  ctx.fields = {{"cell", "3"}, {"scheduler", "ours/sept"}};
  sink.begin_run(ctx);
  sink.on_record(rec(0, *cat_.find("sleep"), 0.0, 1.0));
  const std::string text = out.str();
  EXPECT_EQ(text.find("cell,scheduler,id,function"), 0u);
  EXPECT_NE(text.find("\n3,ours/sept,0,sleep,"), std::string::npos);
}

TEST_F(SinkTest, CsvSinkQuotesFieldsWithCommas) {
  std::ostringstream out;
  CsvSink sink(out, cat_);
  RunContext ctx;
  ctx.fields = {{"scenario", "poisson?weights=1,2,3"}};
  sink.begin_run(ctx);
  sink.on_record(rec(0, *cat_.find("sleep"), 0.0, 1.0));
  EXPECT_NE(out.str().find("\"poisson?weights=1,2,3\","),
            std::string::npos);
}

TEST_F(SinkTest, CsvSinkRejectsSchemaChangesBetweenRuns) {
  std::ostringstream out;
  CsvSink sink(out, cat_);
  RunContext a;
  a.fields = {{"cell", "0"}};
  sink.begin_run(a);
  RunContext b;
  b.fields = {{"seed", "0"}};
  EXPECT_DEATH(sink.begin_run(b), "context keys changed");
}

TEST_F(SinkTest, JsonlSinkEmitsOneObjectPerRecordWithContext) {
  std::ostringstream out;
  JsonlSink sink(out, cat_);
  RunContext ctx;
  // numeric fields are emitted untyped-quoted like cells_jsonl does, so
  // the tool's two JSONL outputs agree on field types.
  ctx.fields = {{"scheduler", "ours/fc"}, {"seed", "2", /*numeric=*/true}};
  sink.begin_run(ctx);
  sink.on_record(rec(0, *cat_.find("sleep"), 0.0, 1.0));
  sink.on_record(rec(1, *cat_.find("graph-bfs"), 0.5, 1.0));
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("{\"scheduler\":\"ours/fc\",\"seed\":2,\"id\":0,"
                      "\"function\":\"sleep\""),
            std::string::npos);
  EXPECT_NE(text.find("\"start_kind\":\"warm\""), std::string::npos);
  EXPECT_NE(text.find("\"stretch\":"), std::string::npos);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  // Spec values are verbatim user input (e.g. trace file paths); every
  // JSONL emitter (JsonlSink, cells_jsonl) must route them through this.
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\rb\x01" "c")), "a\\u000db\\u0001c");
}

TEST_F(SinkTest, PipelineFansOutToEverySink) {
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  MetricsPipeline pipeline;
  auto* csv = pipeline.emplace<CsvSink>(csv_out, cat_);
  auto* jsonl = pipeline.emplace<JsonlSink>(jsonl_out, cat_);
  ASSERT_NE(csv, nullptr);
  ASSERT_NE(jsonl, nullptr);
  EXPECT_EQ(pipeline.size(), 2u);

  const auto records = stream(30);
  pipeline.begin_run(RunContext{});
  for (const auto& r : records) pipeline.consume(r);
  pipeline.end_run();

  EXPECT_EQ(csv_out.str(), to_csv(records, cat_));
  const std::string jsonl_text = jsonl_out.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl_text.begin(), jsonl_text.end(), '\n')),
            records.size());
}

}  // namespace
}  // namespace whisk::metrics
