#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// A timing distribution summarised from raw samples: the median and the
/// highest percentile of the ladder {50, 75, 90, 95, 99, 99.9} that still
/// has at least kTailMinBeyond samples beyond it (nearest-rank), with the
/// sample count it rests on.
struct TailSummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_quantile = 0.0;  ///< 0 when count is too small for any rung.
  size_t windows = 1;
};

inline constexpr size_t kTailMinBeyond = 10;

/// Run tails are taken over windows of this many consecutive samples
/// (CutWindows): each window keeps the p90 rung (100 to 199 samples), and
/// the median across windows keeps one stalled stretch of a run from
/// setting the run's tail. On a shared 4-vCPU host whose vCPUs stall for
/// ~10 ms at a time (3-12% CPU steal), such stalls touch more than 5% of
/// the 5-15 ms operations measured here, so p95 and above measured the
/// host's stalls more than the program (IQR/median of a p95 tail across
/// ten seeds: 0.26 on ingest_neural, 0.46 for a p99 on serve_poisson).
inline constexpr size_t kTailWindowSamples = 100;

/// Samples strictly beyond the nearest-rank position of q in n samples.
size_t SamplesBeyond(size_t n, double q);

/// Highest ladder quantile with at least kTailMinBeyond samples beyond it
/// in a sample of n; 0 when even the median has fewer.
double TailQuantile(size_t n);

/// Median of a sample (0 when empty).
double Median(std::vector<double> values);

/// Summarises `samples` (any order).
TailSummary Summarize(std::vector<double> samples);

/// Summarises a run cut into windows (CutWindows): the median over all
/// samples, and the median across windows of each window's tail (each by
/// the ladder rule on its own samples), so that one stall-ridden window on
/// a shared host does not set the run's tail. `tail_quantile` is the
/// lowest rung any window used.
TailSummary SummarizeWindows(const std::vector<std::vector<double>>& windows);

/// Cuts samples, in the order taken, into windows of `size` samples; the
/// remainder joins the last window, so every window has at least `size`
/// samples unless there are fewer than `size` in all (then one window).
std::vector<std::vector<double>> CutWindows(const std::vector<double>& samples,
                                            size_t size);

/// A closed-open time interval in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Total length covered by the union of `intervals`.
double UnionLength(std::vector<Interval> intervals);

/// Self time of a parent span: the part of `parent` that no child covers
/// (children are clipped to the parent first).
double UncoveredTime(const Interval& parent,
                     const std::vector<Interval>& children);

/// Open-loop latency of one request, counted from when it was due rather
/// than from when the generator got round to sending it:
/// (actual submit - due) + the service's own enqueue-to-completion time.
double DueTimeLatency(double due_s, double submit_s, double service_s);

/// Counter and histogram count/sum differences between two snapshots of
/// one registry. Histogram quantiles are never read: only count and sum,
/// which are exact.
class RegistryDelta {
 public:
  RegistryDelta(const goalex::obs::RegistrySnapshot& before,
                const goalex::obs::RegistrySnapshot& after);

  uint64_t Counter(const std::string& name) const;
  uint64_t HistogramCount(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  /// Sum / count over the window; 0 when nothing was observed.
  double HistogramMean(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, double>> histograms_;
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric set of one run.
using MetricSet = std::vector<std::pair<std::string, Metric>>;

/// Formats a double for JSON with every significant digit; non-finite
/// values are not representable and yield "null".
std::string JsonNumber(double value);

/// JSON string literal with the required escapes.
std::string JsonString(const std::string& text);

/// The result line the benchmark prints last:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
