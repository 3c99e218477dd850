// Tests of the observability layer: metric primitive semantics, histogram
// bucket invariants, registry snapshot consistency, exporter formats, and a
// multi-threaded stress test that must pass under GOALEX_ENABLE_TSAN.
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/scope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace goalex::obs {
namespace {

// --------------------------------------------------------------------------
// Counter.
// --------------------------------------------------------------------------

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

// Property: a counter is monotone non-decreasing under any increment
// sequence (it only ever moves by +n).
TEST(CounterTest, MonotoneUnderRandomIncrements) {
  Counter counter;
  std::mt19937 rng(7);
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    counter.Increment(rng() % 5);
    uint64_t now = counter.Value();
    ASSERT_GE(now, last);
    last = now;
  }
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.5);
  gauge.Add(-4.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), -1.5);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

// --------------------------------------------------------------------------
// Histogram bucket invariants.
// --------------------------------------------------------------------------

TEST(HistogramTest, ObservationsLandInLeBuckets) {
  Histogram histogram({1.0, 2.0, 5.0});
  histogram.Observe(0.5);   // <= 1.0
  histogram.Observe(1.0);   // Exactly on a bound: belongs to that bucket.
  histogram.Observe(1.5);   // <= 2.0
  histogram.Observe(5.0);   // <= 5.0
  histogram.Observe(100.0); // +Inf bucket.

  HistogramSnapshot snap = histogram.Snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 5.0 + 100.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram histogram({1.0});
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
}

// Property: for any observation sequence, bucket counts sum to the total
// count, each observation lands in exactly one bucket, and min <= mean <=
// max.
TEST(HistogramTest, BucketInvariantsUnderRandomObservations) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram histogram(DefaultLatencyBounds());
    std::uniform_real_distribution<double> sample(0.0, 50.0);
    size_t n = 1 + rng() % 500;
    for (size_t i = 0; i < n; ++i) histogram.Observe(sample(rng));

    HistogramSnapshot snap = histogram.Snapshot();
    uint64_t bucket_total = 0;
    for (uint64_t b : snap.buckets) bucket_total += b;
    ASSERT_EQ(bucket_total, snap.count);
    ASSERT_EQ(snap.count, n);
    ASSERT_LE(snap.min, snap.Mean());
    ASSERT_LE(snap.Mean(), snap.max);
  }
}

// Property: quantiles are monotone in q and clamped to the bound ladder.
TEST(HistogramTest, QuantilesAreMonotone) {
  Histogram histogram(DefaultLatencyBounds());
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> sample(1e-6, 10.0);
  for (int i = 0; i < 2000; ++i) histogram.Observe(sample(rng));
  HistogramSnapshot snap = histogram.Snapshot();
  double last = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    double value = snap.Quantile(q);
    ASSERT_GE(value, last) << "q=" << q;
    ASSERT_LE(value, snap.bounds.back());
    last = value;
  }
}

// Regression: interpolation used to place quantiles anywhere in a
// bucket's width, e.g. p50 = 15 for observations 12..14 in a (10, 20]
// bucket, or below the minimum for q near 0. Every quantile must stay in
// the observed [min, max].
TEST(HistogramTest, QuantilesStayWithinObservedMinMax) {
  Histogram histogram({10.0, 20.0});
  for (double v : {12.0, 13.0, 14.0}) histogram.Observe(v);
  HistogramSnapshot snap = histogram.Snapshot();
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double value = snap.Quantile(q);
    EXPECT_GE(value, 12.0) << "q=" << q;
    EXPECT_LE(value, 14.0) << "q=" << q;
  }

  // Size histograms: every batch held exactly 8 items.
  Histogram sizes(DefaultSizeBounds());
  for (int i = 0; i < 100; ++i) sizes.Observe(8.0);
  EXPECT_DOUBLE_EQ(sizes.Snapshot().Quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(sizes.Snapshot().Quantile(0.99), 8.0);

  // The +inf bucket reports the observed maximum, not the last bound.
  Histogram overflow({1.0});
  overflow.Observe(100.0);
  EXPECT_DOUBLE_EQ(overflow.Snapshot().Quantile(0.5), 100.0);
}

// The default latency ladder is log-linear: from 10us up every bucket is
// at most 10% wider than its lower bound, so an interpolated quantile
// stays within 10% of the exact sample quantile at every scale. (A
// 1-2.5-5 ladder put 0.3 ms observations in one (0.25, 0.5] ms bucket.)
TEST(HistogramTest, DefaultLatencyQuantilesTrackExactSampleWithinTenPercent) {
  const std::vector<double>& bounds = DefaultLatencyBounds();
  ASSERT_LE(bounds.front(), 1e-5);
  ASSERT_GE(bounds.back(), 25.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    ASSERT_LE(bounds[i] - bounds[i - 1], 0.1 * bounds[i - 1] * (1 + 1e-9))
        << "bucket (" << bounds[i - 1] << ", " << bounds[i] << "]";
  }

  std::mt19937 rng(41);
  for (double center : {2e-5, 3.3e-4, 1.2e-3, 4.7e-3, 0.06, 0.8, 15.0}) {
    std::lognormal_distribution<double> sample(std::log(center), 0.2);
    Histogram histogram(bounds);
    std::vector<double> values;
    for (int i = 0; i < 2000; ++i) {
      values.push_back(std::clamp(sample(rng), 1e-5, 25.0));
      histogram.Observe(values.back());
    }
    std::sort(values.begin(), values.end());
    HistogramSnapshot snap = histogram.Snapshot();
    for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      // The sample quantile Quantile() estimates: the ceil(q*n)-th value.
      const double rank = std::ceil(q * static_cast<double>(values.size()));
      const double exact = values[static_cast<size_t>(rank) - 1];
      EXPECT_NEAR(snap.Quantile(q), exact, 0.1 * exact)
          << "center " << center << " q " << q;
    }
  }
}

// Sub-10us stages (decode, weak labeling) used to share one [0, 10us]
// bucket, so a 1.4us-mean stage reported p50 ~5us. The ladder now reaches
// 100ns: quantiles of sub-10us samples track the exact sample quantile.
TEST(HistogramTest, SubTenMicrosecondQuantilesTrackExactSample) {
  const std::vector<double>& bounds = DefaultLatencyBounds();
  ASSERT_LE(bounds.front(), 1e-7);
  std::mt19937 rng(43);
  for (double center : {2.5e-7, 1.4e-6, 5e-6}) {
    std::lognormal_distribution<double> sample(std::log(center), 0.3);
    Histogram histogram(bounds);
    std::vector<double> values;
    for (int i = 0; i < 2000; ++i) {
      values.push_back(std::clamp(sample(rng), 1e-7, 9.9e-6));
      histogram.Observe(values.back());
    }
    std::sort(values.begin(), values.end());
    HistogramSnapshot snap = histogram.Snapshot();
    for (double q : {0.01, 0.1, 0.5, 0.9, 0.99}) {
      const double rank = std::ceil(q * static_cast<double>(values.size()));
      const double exact = values[static_cast<size_t>(rank) - 1];
      EXPECT_NEAR(snap.Quantile(q), exact, 0.1 * exact)
          << "center " << center << " q " << q;
    }
  }
}

TEST(HistogramTest, QuantileMatchesUniformDistributionRoughly) {
  Histogram histogram({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  // 1000 evenly spaced observations in (0, 1].
  for (int i = 1; i <= 1000; ++i) histogram.Observe(i / 1000.0);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_NEAR(snap.Quantile(0.5), 0.5, 0.1);
  EXPECT_NEAR(snap.Quantile(0.9), 0.9, 0.1);
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(HistogramDeathTest, RejectsNonIncreasingBounds) {
  EXPECT_DEATH(Histogram({1.0, 1.0}), "strictly increasing");
}
#endif

// --------------------------------------------------------------------------
// Registry.
// --------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
  EXPECT_EQ(registry.GetGauge("x"), registry.GetGauge("x"));
  EXPECT_EQ(registry.GetLatencyHistogram("x"),
            registry.GetLatencyHistogram("x"));
}

TEST(MetricsRegistryTest, SnapshotReflectsAllMetricTypes) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(3);
  registry.GetGauge("g")->Set(1.5);
  registry.GetHistogram("h", {1.0})->Observe(0.5);

  RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "c");
  EXPECT_EQ(snap.counters[0].value, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].snapshot.count, 1u);
  EXPECT_FALSE(snap.Empty());
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* histogram = registry.GetHistogram("h", {1.0});
  counter->Increment(10);
  histogram->Observe(0.5);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Count(), 0u);
  // The handle is still registered and usable.
  counter->Increment();
  EXPECT_EQ(registry.GetCounter("c")->Value(), 1u);
}

TEST(MetricsRegistryTest, RuntimeToggleRoundTrips) {
  EXPECT_TRUE(Enabled());  // Default.
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(Active());
  SetEnabled(true);
  EXPECT_TRUE(Enabled());
  EXPECT_EQ(Active(), kMetricsCompiled);
}

// --------------------------------------------------------------------------
// Scopes.
// --------------------------------------------------------------------------

TEST(ScopedTimerTest, RecordsOnceAndDisarms) {
  Histogram histogram(DefaultLatencyBounds());
  {
    ScopedTimer timer(&histogram);
    EXPECT_TRUE(timer.armed());
    EXPECT_GE(timer.Stop(), 0.0);
    EXPECT_FALSE(timer.armed());
    EXPECT_DOUBLE_EQ(timer.Stop(), 0.0);  // Second stop is a no-op.
  }
  EXPECT_EQ(histogram.Count(), 1u);  // Destructor did not double-record.
}

TEST(ScopedTimerTest, NullHistogramIsDisarmed) {
  ScopedTimer timer(nullptr);
  EXPECT_FALSE(timer.armed());
  EXPECT_DOUBLE_EQ(timer.Stop(), 0.0);
}

TEST(SpanTest, RecordsSecondsAndCalls) {
  MetricsRegistry registry;
  { Span span(&registry, "stage.demo"); }
  { Span span(&registry, "stage.demo"); }
  RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "stage.demo.calls");
  EXPECT_EQ(snap.counters[0].value, 2u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "stage.demo.seconds");
  EXPECT_EQ(snap.histograms[0].snapshot.count, 2u);
}

TEST(SpanTest, DisabledSpanRecordsNothing) {
  MetricsRegistry registry;
  SetEnabled(false);
  { Span span(&registry, "stage.quiet"); }
  SetEnabled(true);
  { Span null_span(nullptr, "stage.quiet"); }
  EXPECT_TRUE(registry.Snapshot().Empty());
}

// --------------------------------------------------------------------------
// Exporters.
// --------------------------------------------------------------------------

RegistrySnapshot ExportFixture() {
  static MetricsRegistry* const registry = [] {
    auto* r = new MetricsRegistry();
    r->GetCounter("extract.count")->Increment(7);
    r->GetGauge("queue.depth")->Set(3);
    Histogram* h = r->GetHistogram("latency.seconds", {0.1, 1.0});
    h->Observe(0.05);
    h->Observe(0.5);
    h->Observe(2.0);
    return r;
  }();
  return registry->Snapshot();
}

TEST(ExportTest, JsonContainsAllSections) {
  std::string json = ToJson(ExportFixture());
  EXPECT_NE(json.find("\"counters\":{\"extract.count\":7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"queue.depth\":3"), std::string::npos);
  EXPECT_NE(json.find("\"latency.seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"+Inf\",\"count\":1}"), std::string::npos);
  // Balanced braces — cheap structural sanity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ExportTest, PrometheusUsesCumulativeBucketsAndLegalNames) {
  std::string prom = ToPrometheus(ExportFixture());
  EXPECT_NE(prom.find("# TYPE goalex_extract_count counter"),
            std::string::npos);
  EXPECT_NE(prom.find("goalex_extract_count 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE goalex_queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE goalex_latency_seconds histogram"),
            std::string::npos);
  // Cumulative: 1 obs <= 0.1, 2 <= 1.0, 3 <= +Inf.
  EXPECT_NE(prom.find("goalex_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("goalex_latency_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("goalex_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("goalex_latency_seconds_count 3"), std::string::npos);
  // No dots may survive name mangling.
  for (const std::string& line : {std::string("goalex_latency.seconds")}) {
    EXPECT_EQ(prom.find(line), std::string::npos);
  }
}

TEST(ExportTest, SummaryMentionsEveryMetric) {
  std::string summary = ToSummary(ExportFixture());
  EXPECT_NE(summary.find("extract.count = 7"), std::string::npos);
  EXPECT_NE(summary.find("queue.depth = 3"), std::string::npos);
  EXPECT_NE(summary.find("latency.seconds: count=3"), std::string::npos);
  EXPECT_NE(summary.find("p95="), std::string::npos);
}

TEST(ExportTest, EmptySnapshotExportsCleanly) {
  RegistrySnapshot empty;
  EXPECT_EQ(ToJson(empty),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  EXPECT_EQ(ToPrometheus(empty), "");
  EXPECT_EQ(ToSummary(empty), "");
}

// --------------------------------------------------------------------------
// Multi-threaded stress (exact totals; race-free under TSAN).
// --------------------------------------------------------------------------

TEST(ObsStressTest, ConcurrentCounterIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves the handle itself: registration under
      // contention must still yield one shared counter.
      Counter* counter = registry.GetCounter("stress.counter");
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("stress.counter")->Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(ObsStressTest, ConcurrentHistogramObservationsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kObservations = 20000;
  Histogram histogram(DefaultLatencyBounds());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::uniform_real_distribution<double> sample(0.0, 10.0);
      for (int i = 0; i < kObservations; ++i) histogram.Observe(sample(rng));
    });
  }
  for (std::thread& thread : threads) thread.join();

  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kObservations);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_GE(snap.min, 0.0);
  EXPECT_LE(snap.max, 10.0);
}

TEST(ObsStressTest, ConcurrentGaugeAddsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  Gauge gauge;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // Half the threads add, half subtract; the CAS loop must lose nothing.
    double delta = t % 2 == 0 ? 1.0 : -1.0;
    threads.emplace_back([&gauge, delta] {
      for (int i = 0; i < kAdds; ++i) gauge.Add(delta);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(ObsStressTest, SnapshotDuringConcurrentWritesIsCoherent) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry, &stop, t] {
      Counter* counter =
          registry.GetCounter(std::string("c").append(std::to_string(t)));
      Histogram* histogram = registry.GetLatencyHistogram("h");
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        histogram->Observe(0.001);
      }
    });
  }
  // Snapshots while writers hammer the registry: none may crash, and every
  // read must be internally sane (bucket sum never exceeds a later count
  // read... we assert only non-decreasing totals per counter).
  uint64_t last_total = 0;
  for (int i = 0; i < 50; ++i) {
    RegistrySnapshot snap = registry.Snapshot();
    uint64_t total = 0;
    for (const CounterSample& c : snap.counters) total += c.value;
    ASSERT_GE(total, last_total);
    last_total = total;
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
}

}  // namespace
}  // namespace goalex::obs
