#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace grimp {
namespace {

// All tests share the process-global registry, so each uses its own metric
// names (and Reset() only where the test owns every name it touches).

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(GaugeTest, RaiseToKeepsTheMaximum) {
  Gauge gauge;
  gauge.RaiseTo(0.75);
  gauge.RaiseTo(0.25);
  EXPECT_EQ(gauge.value(), 0.75);
  ThreadPool pool(4);
  pool.ParallelFor(0, 1000, 1, [&](int64_t b, int64_t) {
    gauge.RaiseTo(static_cast<double>(b) / 1000.0);
  });
  EXPECT_EQ(gauge.value(), 0.999);
}

TEST(HistogramTest, BucketIndexLog2Scale) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(0.99), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 1);
  EXPECT_EQ(Histogram::BucketIndex(1.99), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 2);
  EXPECT_EQ(Histogram::BucketIndex(1024.0), 11);
  // NaN and huge values stay in range.
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 8.0);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, RecordsCountSumMinMax) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.min(), 0.0);  // empty histogram reports 0
  EXPECT_EQ(hist.max(), 0.0);
  hist.Record(4.0);
  hist.Record(0.5);
  hist.Record(100.0);
  EXPECT_EQ(hist.count(), 3);
  EXPECT_DOUBLE_EQ(hist.sum(), 104.5);
  EXPECT_DOUBLE_EQ(hist.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
  EXPECT_EQ(hist.bucket_count(Histogram::BucketIndex(0.5)), 1);
  EXPECT_EQ(hist.bucket_count(Histogram::BucketIndex(4.0)), 1);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.min(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
}

TEST(SeriesTest, AppendsInOrder) {
  Series series;
  series.Append(1.0);
  series.Append(2.0);
  series.Append(3.0);
  EXPECT_EQ(series.size(), 3);
  EXPECT_EQ(series.Snapshot(), (std::vector<double>{1.0, 2.0, 3.0}));
  series.Reset();
  EXPECT_EQ(series.size(), 0);
}

TEST(MetricsRegistryTest, GetReturnsStableReferences) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("test.registry.stable");
  Counter& b = registry.GetCounter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1);
  // Registering other metrics must not move the first one.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("test.registry.fill." + std::to_string(i));
  }
  EXPECT_EQ(&registry.GetCounter("test.registry.stable"), &a);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesUnderThreadPool) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test.concurrent.counter");
  Histogram& hist = registry.GetHistogram("test.concurrent.hist");
  counter.Reset();
  hist.Reset();

  ThreadPool pool(4);
  constexpr int64_t kN = 100000;
  pool.ParallelFor(0, kN, 1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      counter.Increment();
      hist.Record(static_cast<double>(i % 128));
    }
  });

  EXPECT_EQ(counter.value(), kN);
  EXPECT_EQ(hist.count(), kN);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 127.0);
  int64_t bucket_total = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, kN);
}

TEST(TraceSpanTest, RecordsOnScopeExit) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const SpanStats before = registry.GetSpanStats("test.span.scope");
  { GRIMP_TRACE_SPAN("test.span.scope"); }
  const SpanStats after = registry.GetSpanStats("test.span.scope");
  EXPECT_EQ(after.count, before.count + 1);
  EXPECT_GE(after.total_seconds, before.total_seconds);
}

TEST(TraceSpanTest, StopRecordsOnceAndDisarmsDestructor) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  {
    TraceSpan span("test.span.stop");
    const double first = span.Stop();
    EXPECT_GE(first, 0.0);
    // Second Stop and the destructor must not record again.
    EXPECT_EQ(span.Stop(), first);
  }
  EXPECT_EQ(registry.GetSpanStats("test.span.stop").count, 1);
}

TEST(TraceSpanTest, NestedSpansAggregateIndependently) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  {
    GRIMP_TRACE_SPAN("test.span.outer");
    {
      GRIMP_TRACE_SPAN("test.span.inner");
      { GRIMP_TRACE_SPAN("test.span.inner"); }  // same name, nested again
    }
  }
  EXPECT_EQ(registry.GetSpanStats("test.span.outer").count, 1);
  EXPECT_EQ(registry.GetSpanStats("test.span.inner").count, 2);
  // The outer span covers the inner ones.
  EXPECT_GE(registry.GetSpanStats("test.span.outer").total_seconds,
            registry.GetSpanStats("test.span.inner").max_seconds);
}

TEST(MetricsRegistryTest, SpanStatsTrackMinMax) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.RecordSpan("test.span.minmax", 2.0);
  registry.RecordSpan("test.span.minmax", 0.5);
  registry.RecordSpan("test.span.minmax", 1.0);
  const SpanStats stats = registry.GetSpanStats("test.span.minmax");
  EXPECT_EQ(stats.count, 3);
  EXPECT_DOUBLE_EQ(stats.total_seconds, 3.5);
  EXPECT_DOUBLE_EQ(stats.min_seconds, 0.5);
  EXPECT_DOUBLE_EQ(stats.max_seconds, 2.0);
  EXPECT_EQ(registry.GetSpanStats("test.span.never-ran").count, 0);
}

// Minimal structural JSON check: balanced braces/brackets outside strings,
// all five sections present, no raw inf/nan tokens.
void CheckJsonShape(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  for (const char* section :
       {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"series\"",
        "\"spans\""}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf,"), std::string::npos);  // "inf" only as string
}

TEST(MetricsRegistryTest, ToJsonRoundTrip) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json.counter\"quoted\"").Increment(7);
  registry.GetGauge("test.json.gauge").Set(2.5);
  Histogram& hist = registry.GetHistogram("test.json.hist");
  hist.Record(3.0);
  hist.Record(1e30);  // lands in a high bucket; sum must stay finite text
  registry.GetSeries("test.json.series").Append(0.125);
  registry.RecordSpan("test.json.span", 0.25);

  const std::string json = registry.ToJson();
  CheckJsonShape(json);
  EXPECT_NE(json.find("\"test.json.counter\\\"quoted\\\"\": 7"),
            std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.series\": [0.125]"), std::string::npos);
  EXPECT_NE(json.find("test.json.span"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteJsonCreatesParseableFile) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.write.counter").Increment();
  const std::string path = ::testing::TempDir() + "metrics_test_out.json";
  ASSERT_TRUE(registry.WriteJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  CheckJsonShape(content);
  EXPECT_NE(content.find("test.write.counter"), std::string::npos);
  EXPECT_FALSE(registry.WriteJson("/nonexistent-dir/x/y.json").ok());
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test.reset.counter");
  counter.Increment(5);
  registry.RecordSpan("test.reset.span", 1.0);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(registry.GetSpanStats("test.reset.span").count, 0);
  // The reference survives Reset and keeps working.
  counter.Increment();
  EXPECT_EQ(registry.GetCounter("test.reset.counter").value(), 1);
}

}  // namespace
}  // namespace grimp
