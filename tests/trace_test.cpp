// Tests for query-log parsing, trace extraction, and resource binning.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "trace/extractor.h"
#include "workloads/query_log.h"

namespace dbaugur::trace {
namespace {

TEST(TimestampTest, EpochSeconds) {
  auto t = ParseTimestamp("1480413600");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 1480413600);
}

TEST(TimestampTest, IsoDateTime) {
  auto t = ParseTimestamp("1970-01-01 00:01:40");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 100);
  auto t2 = ParseTimestamp("1970-01-02T00:00:00");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, 86400);
}

TEST(TimestampTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTimestamp("yesterday").ok());
  EXPECT_FALSE(ParseTimestamp("").ok());
  EXPECT_FALSE(ParseTimestamp("2016-13-40 99:00:00").ok());
}

TEST(ParseQueryLogTest, MixedFormats) {
  std::string log =
      "100 SELECT * FROM t WHERE id = 1\n"
      "\n"
      "1970-01-01 00:02:00 SELECT * FROM t WHERE id = 2\n"
      "1970-01-01T00:03:00 UPDATE t SET x = 5 WHERE id = 3\n";
  auto entries = ParseQueryLog(log);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].timestamp, 100);
  EXPECT_EQ((*entries)[1].timestamp, 120);
  EXPECT_EQ((*entries)[2].timestamp, 180);
  EXPECT_EQ((*entries)[2].sql.substr(0, 6), "UPDATE");
}

TEST(ParseQueryLogTest, BadLineReportsLineNumber) {
  auto entries = ParseQueryLog("100 SELECT 1\nnot-a-line\n");
  ASSERT_FALSE(entries.ok());
  EXPECT_NE(entries.status().message().find("line 2"), std::string::npos);
}

TEST(TraceExtractorTest, BinsPerTemplate) {
  ExtractionOptions opts;
  opts.interval_seconds = 60;
  TraceExtractor ex(opts);
  // Template A at t=0,30 (bin 0) and t=70 (bin 1); template B at t=130 (bin 2).
  ASSERT_TRUE(ex.Ingest({0, "SELECT * FROM a WHERE id = 1"}).ok());
  ASSERT_TRUE(ex.Ingest({30, "SELECT * FROM a WHERE id = 9"}).ok());
  ASSERT_TRUE(ex.Ingest({70, "SELECT * FROM a WHERE id = 2"}).ok());
  ASSERT_TRUE(ex.Ingest({130, "SELECT * FROM b WHERE id = 3"}).ok());
  auto traces = ex.TemplateTraces();
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->size(), 2u);
  const auto& a = (*traces)[0];
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 0.0);
  const auto& b = (*traces)[1];
  EXPECT_DOUBLE_EQ(b[2], 1.0);
  EXPECT_EQ(a.interval_seconds(), 60);
  auto total = ex.TotalTrace();
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ((*total)[0], 2.0);
  EXPECT_DOUBLE_EQ((*total)[2], 1.0);
}

TEST(TraceExtractorTest, SimilarStatementsShareTemplate) {
  ExtractionOptions opts;
  opts.interval_seconds = 60;
  TraceExtractor ex(opts);
  ASSERT_TRUE(ex.Ingest({0, "SELECT a, b FROM foo"}).ok());
  ASSERT_TRUE(ex.Ingest({10, "SELECT b, a FROM foo"}).ok());
  EXPECT_EQ(ex.registry().size(), 1u);
}

TEST(TraceExtractorTest, EmptyExtractorFails) {
  TraceExtractor ex(ExtractionOptions{});
  EXPECT_FALSE(ex.TemplateTraces().ok());
  EXPECT_FALSE(ex.TotalTrace().ok());
}

TEST(TraceExtractorTest, RejectsBadInterval) {
  ExtractionOptions opts;
  opts.interval_seconds = 0;
  TraceExtractor ex(opts);
  EXPECT_FALSE(ex.Ingest({0, "SELECT 1 FROM t"}).ok());
}

TEST(BinResourceSamplesTest, AveragesWithinBins) {
  std::vector<ResourceSample> samples = {
      {0, 0.2}, {30, 0.4}, {70, 0.6}, {200, 0.8}};
  auto s = BinResourceSamples(samples, 60, "cpu");
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->size(), 4u);
  EXPECT_DOUBLE_EQ((*s)[0], 0.3);   // (0.2+0.4)/2
  EXPECT_DOUBLE_EQ((*s)[1], 0.6);
  EXPECT_DOUBLE_EQ((*s)[2], 0.6);   // gap carries previous value
  EXPECT_DOUBLE_EQ((*s)[3], 0.8);
  EXPECT_EQ(s->name(), "cpu");
}

TEST(BinResourceSamplesTest, Validation) {
  EXPECT_FALSE(BinResourceSamples({}, 60).ok());
  EXPECT_FALSE(BinResourceSamples({{0, 1.0}}, 0).ok());
}

TEST(QueryLogGeneratorTest, ProducesOrderedParsableLog) {
  workloads::QueryLogOptions opts;
  opts.days = 1;
  opts.seed = 5;
  auto log = workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), opts);
  ASSERT_GT(log.size(), 1000u);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].timestamp, log[i].timestamp);
  }
  // Every generated statement must survive SQL2Template.
  ExtractionOptions eopts;
  eopts.interval_seconds = 600;
  TraceExtractor ex(eopts);
  ASSERT_TRUE(ex.IngestLog(log).ok());
  // Six specs => six templates (literals differ per statement).
  EXPECT_EQ(ex.registry().size(), 6u);
  auto traces = ex.TemplateTraces();
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ((*traces)[0].size(), 144u);  // 1 day at 10-minute bins
}

TEST(QueryLogGeneratorTest, EveningTemplatesPeakInEvening) {
  workloads::QueryLogOptions opts;
  opts.days = 2;
  opts.seed = 6;
  auto specs = workloads::BusTrackerTemplates();
  auto log = workloads::GenerateQueryLog(specs, opts);
  // Count ticket-price queries by half of day.
  size_t morning = 0, evening = 0;
  for (const auto& e : log) {
    if (e.sql.find("price") == std::string::npos) continue;
    int64_t sec_of_day = e.timestamp % 86400;
    if (sec_of_day < 43200) {
      ++morning;
    } else {
      ++evening;
    }
  }
  EXPECT_GT(evening, morning * 3);
}

// --- hardening: lenient log parsing and per-class rejection counters ---------

TEST(TimestampTest, OverflowingDigitStringRejectedCleanly) {
  auto ts = ParseTimestamp("99999999999999999999999");
  ASSERT_FALSE(ts.ok());
  EXPECT_NE(ts.status().message().find("out of range"), std::string::npos)
      << ts.status().message();
  // Near the boundary: INT64_MAX parses, one more digit does not.
  EXPECT_TRUE(ParseTimestamp("9223372036854775807").ok());
  EXPECT_FALSE(ParseTimestamp("92233720368547758070").ok());
}

TEST(ParseQueryLogLenientTest, CountsEachRejectionClass) {
  const std::string text =
      "100 SELECT * FROM a\n"
      "101\n"                                        // no SQL after timestamp
      "not-a-time SELECT * FROM b\n"                 // bad timestamp
      "####42\n"                                     // one junk token
      "99999999999999999999999 SELECT * FROM c\n"    // overflowing timestamp
      "102 SELECT * FROM d\n"
      "\n";                                          // blank lines are fine
  ParsedQueryLog parsed = ParseQueryLogLenient(text);
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.rejected.no_sql, 2u);
  EXPECT_EQ(parsed.rejected.bad_timestamp, 2u);
  EXPECT_EQ(parsed.rejected.total(), 4u);
  EXPECT_EQ(parsed.first_bad_line, 2u);
  EXPECT_NE(parsed.first_error.find("log line 2"), std::string::npos)
      << parsed.first_error;
  EXPECT_EQ(parsed.entries[0].timestamp, 100);
  EXPECT_EQ(parsed.entries[1].timestamp, 102);
}

TEST(ParseQueryLogLenientTest, CleanLogHasNoRejections) {
  ParsedQueryLog parsed =
      ParseQueryLogLenient("100 SELECT 1\n2024-01-02 03:04:05 SELECT 2\n");
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.rejected.total(), 0u);
  EXPECT_EQ(parsed.first_bad_line, 0u);
  EXPECT_TRUE(parsed.first_error.empty());
}

TEST(ParseQueryLogTest, StrictParseFailsWithTheFirstLenientError) {
  const std::string text = "100 SELECT 1\nbogus SELECT 2\n";
  auto strict = ParseQueryLog(text);
  ASSERT_FALSE(strict.ok());
  ParsedQueryLog lenient = ParseQueryLogLenient(text);
  EXPECT_EQ(strict.status().message(), lenient.first_error);
}

TEST(TraceExtractorTest, IngestLenientCountsRejectedStatements) {
  TraceExtractor ex(ExtractionOptions{});
  EXPECT_TRUE(ex.IngestLenient({0, "SELECT * FROM t WHERE id = 1"}));
  std::string nul_sql = "SELECT ";
  nul_sql += '\0';
  nul_sql += "FROM t";
  EXPECT_FALSE(ex.IngestLenient({10, nul_sql}));
  EXPECT_FALSE(ex.IngestLenient({20, "SELECT 'truncat"}));
  EXPECT_TRUE(ex.IngestLenient({30, "SELECT * FROM t WHERE id = 2"}));
  EXPECT_EQ(ex.entry_count(), 2u);
  EXPECT_EQ(ex.rejected_statements(), 2u);
  EXPECT_EQ(ex.registry().size(), 1u);  // both good statements share a template
}

TEST(TraceExtractorTest, RefusesTimestampRangeBeyondBinCap) {
  // Both timestamps parse; at interval 1 their span would need 2^62 bins.
  auto log = ParseQueryLog(
      "0 SELECT * FROM t WHERE id = 1\n"
      "4611686018427387904 SELECT * FROM t WHERE id = 2\n");
  ASSERT_TRUE(log.ok());
  ExtractionOptions opts;
  opts.interval_seconds = 1;
  TraceExtractor ex(opts);
  ASSERT_TRUE(ex.IngestLog(*log).ok());
  EXPECT_EQ(ex.TemplateTraces().status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ex.TotalTrace().ok());

  // The extremes of int64 (a span that wraps an unsigned bin count to 0).
  TraceExtractor extremes(opts);
  ASSERT_TRUE(extremes.Ingest({INT64_MIN, "SELECT 1 FROM t"}).ok());
  ASSERT_TRUE(extremes.Ingest({INT64_MAX, "SELECT 1 FROM t"}).ok());
  EXPECT_FALSE(extremes.TemplateTraces().ok());

  // Exactly at the cap still materializes.
  TraceExtractor at_cap(opts);
  const int64_t last = static_cast<int64_t>(ts::kMaxTraceBins) - 1;
  ASSERT_TRUE(at_cap.Ingest({0, "SELECT 1 FROM t"}).ok());
  ASSERT_TRUE(at_cap.Ingest({last, "SELECT 1 FROM t"}).ok());
  auto traces = at_cap.TemplateTraces();
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ((*traces)[0].size(), ts::kMaxTraceBins);
}

TEST(BinResourceSamplesTest, RefusesRangeBeyondBinCap) {
  EXPECT_EQ(BinResourceSamples({{0, 0.5}, {int64_t{1} << 40, 0.5}}, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(BinResourceSamples({{INT64_MIN + 1, 0.5}, {INT64_MAX, 0.5}}, 1)
                   .ok());
}

TEST(BinResourceSamplesTest, PreEpochSamplesFloorLikeQueryTraces) {
  // -5 s and 5 s at interval 10 are bins -1 and 0, as the extractor bins them.
  auto res = BinResourceSamples({{-5, 0.2}, {5, 0.4}}, 10);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 2u);
  EXPECT_EQ(res->start(), -10);
  EXPECT_DOUBLE_EQ((*res)[0], 0.2);
  EXPECT_DOUBLE_EQ((*res)[1], 0.4);

  ExtractionOptions opts;
  opts.interval_seconds = 10;
  TraceExtractor ex(opts);
  ASSERT_TRUE(ex.Ingest({-5, "SELECT 1 FROM t"}).ok());
  ASSERT_TRUE(ex.Ingest({5, "SELECT 1 FROM t"}).ok());
  auto query = ex.TotalTrace();
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->start(), res->start());
  EXPECT_EQ(query->size(), res->size());
}

}  // namespace
}  // namespace dbaugur::trace
