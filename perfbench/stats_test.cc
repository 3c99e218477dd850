// Tests of the benchmark's own helpers: the percentile/sample-count rule,
// interval-union self time, due-time latency, registry deltas and the
// result line. Run with `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "stats_test.cc:%d: FAILED: %s\n", line, what);
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void TestTailRule() {
  using perfbench::SamplesBeyond;
  using perfbench::TailQuantile;
  // Nearest rank: p50 of 1..20 is the 10th value; 10 samples lie beyond.
  EXPECT(SamplesBeyond(20, 0.5) == 10);
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  // Too few samples for any rung.
  EXPECT(TailQuantile(19) == 0.0);
  EXPECT(TailQuantile(20) == 0.5);
  EXPECT(TailQuantile(40) == 0.75);
  EXPECT(TailQuantile(100) == 0.9);
  EXPECT(TailQuantile(199) == 0.9);
  EXPECT(TailQuantile(200) == 0.95);
  EXPECT(TailQuantile(999) == 0.95);
  EXPECT(TailQuantile(1000) == 0.99);
  EXPECT(TailQuantile(10000) == 0.999);

  perfbench::TailSummary summary = perfbench::Summarize(Ramp(1000));
  EXPECT(summary.count == 1000);
  EXPECT(summary.p50 == 500.0);
  EXPECT(summary.tail_quantile == 0.99);
  EXPECT(summary.tail == 990.0);
  // Unordered input gives the same answer.
  std::vector<double> shuffled = Ramp(1000);
  std::swap(shuffled[0], shuffled[999]);
  std::swap(shuffled[10], shuffled[500]);
  EXPECT(perfbench::Summarize(shuffled).tail == 990.0);
  // Reported values are observed samples, never outside [min, max].
  perfbench::TailSummary small = perfbench::Summarize({3.0, 1.0, 2.0});
  EXPECT(small.tail_quantile == 0.0);
  EXPECT(small.p50 == 2.0 && small.tail == 2.0);
  EXPECT(perfbench::Summarize({}).count == 0);
}

void TestWindowedTail() {
  // Three windows of 1..100 scaled by 1, 2 and 10: each window's tail is
  // its p90 (10 samples beyond), and the run's tail is the middle one.
  std::vector<std::vector<double>> windows;
  for (double scale : {1.0, 10.0, 2.0}) {
    std::vector<double> window = Ramp(100);
    for (double& v : window) v *= scale;
    windows.push_back(window);
  }
  windows.push_back({});  // An empty window is skipped.
  perfbench::TailSummary summary = perfbench::SummarizeWindows(windows);
  EXPECT(summary.windows == 3);
  EXPECT(summary.count == 300);
  EXPECT(summary.tail_quantile == 0.9);
  EXPECT(summary.tail == 180.0);
  // The p50 pools every sample: the 150th smallest of the 300.
  EXPECT(summary.p50 == 94.0);
  EXPECT(perfbench::SummarizeWindows({}).count == 0);
}

void TestCutWindows() {
  // 1..1000 in windows of 400: the remainder of 200 joins the second
  // window, so both windows keep the p95 rung.
  std::vector<std::vector<double>> windows =
      perfbench::CutWindows(Ramp(1000), 400);
  EXPECT(windows.size() == 2);
  EXPECT(windows.size() == 2 && windows[0].size() == 400 &&
         windows[1].size() == 600);
  EXPECT(windows.size() == 2 && windows[0].back() == 400.0 &&
         windows[1].front() == 401.0);
  // Fewer samples than one window: a single window holding them all.
  EXPECT(perfbench::CutWindows(Ramp(7), 400).size() == 1);
  EXPECT(perfbench::CutWindows(Ramp(7), 400)[0].size() == 7);
  EXPECT(perfbench::CutWindows({}, 400).size() == 1);
}

void TestIntervalUnion() {
  using perfbench::Interval;
  EXPECT(Near(perfbench::UnionLength({}), 0.0));
  EXPECT(Near(perfbench::UnionLength({{0, 1}, {2, 3}}), 2.0));
  EXPECT(Near(perfbench::UnionLength({{0, 2}, {1, 3}}), 3.0));
  EXPECT(Near(perfbench::UnionLength({{1, 3}, {0, 2}, {2.5, 2.75}}), 3.0));
  EXPECT(Near(perfbench::UnionLength({{0, 1}, {1, 2}}), 2.0));
  // Empty and reversed intervals cover nothing.
  EXPECT(Near(perfbench::UnionLength({{1, 1}, {3, 2}}), 0.0));

  // Self time: overlapping children (parallel workers) count once, and
  // children are clipped to the parent.
  const Interval parent{10, 20};
  EXPECT(Near(perfbench::UncoveredTime(parent, {}), 10.0));
  EXPECT(Near(perfbench::UncoveredTime(parent, {{11, 13}, {12, 15}}), 6.0));
  EXPECT(Near(perfbench::UncoveredTime(parent, {{5, 12}, {19, 25}}), 7.0));
  EXPECT(Near(perfbench::UncoveredTime(parent, {{0, 30}}), 0.0));
  EXPECT(Near(perfbench::UncoveredTime(parent, {{0, 5}}), 10.0));
}

void TestSelfSecondsFromSpans() {
  using perfbench::SpanRecord;
  std::vector<SpanRecord> spans;
  spans.push_back({"pipeline.process", 1, 0, 0.0, 10.0, 1});
  spans.push_back({"core.extract", 2, 1, 1.0, 4.0, 2});
  spans.push_back({"goalspotter.detect", 3, 1, 3.0, 6.0, 3});
  spans.push_back({"core.extract", 4, 1, 8.0, 9.0, 2});
  // A child of another span is not this parent's.
  spans.push_back({"core.extract", 5, 99, 6.0, 8.0, 2});
  spans.push_back({"pipeline.process", 6, 0, 20.0, 21.0, 1});
  EXPECT(Near(perfbench::SelfSeconds(spans, "pipeline.process",
                                     {"core.extract", "goalspotter.detect"}),
              4.0 + 1.0));
  EXPECT(Near(perfbench::SpanBusySeconds(spans, "core.extract"), 6.0));
  EXPECT(perfbench::SpanCount(spans, "core.extract") == 3);
}

void TestDueTimeLatency() {
  // On time: the service latency alone.
  EXPECT(Near(perfbench::DueTimeLatency(1.0, 1.0, 0.004), 0.004));
  // A generator 30 ms late adds those 30 ms to the request's latency.
  EXPECT(Near(perfbench::DueTimeLatency(1.0, 1.030, 0.004), 0.034));
}

void TestRegistryDelta() {
  goalex::obs::MetricsRegistry registry;
  goalex::obs::Counter* counter = registry.GetCounter("c");
  goalex::obs::Histogram* histogram = registry.GetLatencyHistogram("h");
  counter->Increment(5);
  histogram->Observe(1.0);
  const goalex::obs::RegistrySnapshot before = registry.Snapshot();
  counter->Increment(3);
  histogram->Observe(0.25);
  histogram->Observe(0.75);
  registry.GetCounter("late")->Increment(2);
  perfbench::RegistryDelta delta(before, registry.Snapshot());
  EXPECT(delta.Counter("c") == 3);
  EXPECT(delta.Counter("late") == 2);
  EXPECT(delta.Counter("missing") == 0);
  EXPECT(delta.HistogramCount("h") == 2);
  EXPECT(Near(delta.HistogramSum("h"), 1.0));
  EXPECT(Near(delta.HistogramMean("h"), 0.5));
  EXPECT(Near(delta.HistogramMean("missing"), 0.0));
}

void TestResultLine() {
  perfbench::MetricSet metrics = {{"latency_ms", {1.5, "ms"}},
                                  {"setup_s", {0.25, "s"}}};
  EXPECT(perfbench::ResultJson(true, 10, 1, metrics) ==
         "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
         "\"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
         "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
  EXPECT(perfbench::JsonNumber(std::nan("")) == "null");
  EXPECT(perfbench::JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
}

void TestTracerOffRecordsNothing() {
  perfbench::Tracer& tracer = perfbench::Tracer::Get();
  tracer.SetEnabled(false);
  { perfbench::ScopedSpan span("off"); }
  EXPECT(tracer.Drain().empty());
  tracer.SetEnabled(true);
  uint64_t outer_id = 0;
  {
    perfbench::ScopedSpan outer("outer", 0);
    outer_id = outer.id();
    tracer.SetAmbientParent(outer_id);
    perfbench::ScopedSpan inner("inner");
    tracer.SetAmbientParent(0);
  }
  tracer.SetEnabled(false);
  std::vector<perfbench::SpanRecord> spans = tracer.Drain();
  EXPECT(spans.size() == 2);
  EXPECT(spans.size() == 2 && std::string(spans[1].name) == "inner" &&
         spans[1].parent == outer_id);
}

}  // namespace

int main() {
  TestTailRule();
  TestWindowedTail();
  TestCutWindows();
  TestIntervalUnion();
  TestSelfSecondsFromSpans();
  TestDueTimeLatency();
  TestRegistryDelta();
  TestResultLine();
  TestTracerOffRecordsNothing();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
