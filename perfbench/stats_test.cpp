#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(TailPercentileTest, PicksHighestWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0u);
  EXPECT_EQ(TailPercentile(19), 0u);     // Median has only 9 beyond.
  EXPECT_EQ(TailPercentile(20), 5000u);  // Exactly 10 beyond the median.
  EXPECT_EQ(TailPercentile(99), 5000u);  // p90 has 9 beyond.
  EXPECT_EQ(TailPercentile(100), 9000u);
  EXPECT_EQ(TailPercentile(999), 9000u);
  EXPECT_EQ(TailPercentile(1000), 9900u);
  EXPECT_EQ(TailPercentile(10000), 9990u);
  EXPECT_EQ(TailPercentile(100000), 9999u);
  EXPECT_EQ(TailPercentile(50'000'000), 9999u);
}

TEST(TailPercentileTest, SamplesBeyondIsExact) {
  EXPECT_EQ(SamplesBeyond(1000, 9900), 10u);
  EXPECT_EQ(SamplesBeyond(1001, 9900), 10u);  // ceil(990.99) = 991.
  EXPECT_EQ(SamplesBeyond(10, 5000), 5u);
}

TEST(LatencyHistogramTest, InterpolatesInsideBuckets) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(50), 0.0);
  for (int i = 0; i < 4; ++i) h.Record(10);
  // Four readings of 10 ns spread over [10, 11): the median sits halfway.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 10.5);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 11.0);
  h.Record(LatencyHistogram::kBuckets + 500);  // Overflow keeps the max.
  EXPECT_DOUBLE_EQ(h.Percentile(100),
                   static_cast<double>(LatencyHistogram::kBuckets + 500));
  LatencyHistogram g;
  g.Record(20);
  g.Merge(h);
  EXPECT_EQ(g.count(), 6u);
}

TEST(SmapeTest, ZeroDenominatorIsAPerfectForecast) {
  EXPECT_EQ(SmapeTerm(0.0, 0.0), 0.0);
  EXPECT_EQ(SmapeTerm(-0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(SmapeTerm(5.0, 0.0), 2.0);  // One side zero: the maximum.
  EXPECT_DOUBLE_EQ(SmapeTerm(0.0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(SmapeTerm(3.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(SmapePercent({0.0, 2.0}), 100.0);
  EXPECT_EQ(SmapePercent({}), 0.0);
}

Span At(const char* name, double start, double end, int64_t parent,
        bool attributed = false) {
  return {name, start, end, parent, 1, attributed};
}

TEST(SelfTimeTest, SubtractsUnionOfNestedChildren) {
  std::vector<Span> spans = {
      At("parent", 0.0, 10.0, -1),
      At("a", 1.0, 4.0, 0),
      At("b", 3.0, 5.0, 0),    // Overlaps a: the union is [1, 5).
      At("c", 8.0, 12.0, 0),   // Clipped to the parent: [8, 10).
      At("grandchild", 1.0, 2.0, 1),  // Not a direct child of 0.
  };
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0), 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(SelfTime(spans, 1), 3.0 - 1.0);
}

TEST(SelfTimeTest, SubtractsAttributedDurations) {
  std::vector<Span> spans = {
      At("rebuild", 0.0, 10.0, -1),
      At("materialize", 20.0, 21.0, 0, true),  // Timed outside the parent.
      At("build", 30.0, 36.0, 0, true),
      At("cluster", 40.0, 44.0, 2, true),
  };
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0), 10.0 - 1.0 - 6.0);
  EXPECT_DOUBLE_EQ(SelfTime(spans, 2), 6.0 - 4.0);
  spans.push_back(At("slow", 50.0, 55.0, 0, true));
  EXPECT_DOUBLE_EQ(SelfTime(spans, 0), -2.0);  // Not clamped.
}

}  // namespace
}  // namespace perfbench
