#ifndef GOALEX_OBS_METRICS_H_
#define GOALEX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace goalex::obs {

// ---------------------------------------------------------------------------
// Compile-time kill switch. Building with -DGOALEX_DISABLE_METRICS compiles
// every instrumentation site in the pipeline down to nothing (the helpers in
// scope.h and the Active() gate below become constant-false and fold away).
// ---------------------------------------------------------------------------
#ifdef GOALEX_DISABLE_METRICS
inline constexpr bool kMetricsCompiled = false;
#else
inline constexpr bool kMetricsCompiled = true;
#endif

/// Process-wide runtime toggle (default on). Layers that have no
/// configuration struct of their own (thread pool, batch runner, weak
/// labeler) consult this; DetailExtractor additionally honors
/// ExtractorConfig::enable_metrics.
bool Enabled();
void SetEnabled(bool enabled);

/// True when instrumentation is both compiled in and enabled at runtime.
inline bool Active() { return kMetricsCompiled && Enabled(); }

// ---------------------------------------------------------------------------
// Metric primitives. All update paths are lock-free (relaxed atomics / CAS
// loops); registration and snapshotting take the registry mutex. Handles
// returned by the registry are stable for the registry's lifetime, so hot
// paths resolve a metric once and update through the pointer.
// ---------------------------------------------------------------------------

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, worker count, rates).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only view of a histogram at one point in time.
struct HistogramSnapshot {
  std::vector<double> bounds;     ///< Upper bounds; implicit +inf tail.
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1 entries.
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Meaningful only when count > 0.
  double max = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }

  /// Bucket-interpolated quantile estimate (q in [0, 1]), clamped to the
  /// observed [min, max]. The +inf bucket reports the largest finite bound
  /// before that clamp.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram: observation fan-in is lock-free.
class Histogram {
 public:
  /// `bounds` are strictly increasing upper bounds; a +inf bucket is
  /// appended implicitly.
  explicit Histogram(std::vector<double> bounds);

  /// Records one observation: the first bucket with v <= bound, else +inf.
  void Observe(double v);

  HistogramSnapshot Snapshot() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Log-linear ladder from 100 nanoseconds to 95 seconds, 35 bounds per
/// decade, no bucket more than 10% wider than its lower bound — so
/// interpolated quantiles stay within 10% of the exact sample quantile.
/// The default for the pipeline's latency histograms.
const std::vector<double>& DefaultLatencyBounds();

/// Power-of-four ladder from 1 to ~16k — for batch-size distributions.
const std::vector<double>& DefaultSizeBounds();

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  HistogramSnapshot snapshot;
};

/// A consistent point-in-time read of every registered metric, ready for
/// the exporters in export.h.
struct RegistrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool Empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Thread-safe name -> metric registry. Metric names use dotted lowercase
/// components ("extractor.stage.predict.seconds"); the Prometheus exporter
/// maps them to legal identifiers. Get* registers on first use and returns
/// the same stable handle for the same name ever after.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` are used only on first registration; later calls with the
  /// same name return the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);
  /// Latency histogram with DefaultLatencyBounds().
  Histogram* GetLatencyHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;

  /// Zeroes every metric, keeping registrations (and thus handles) valid.
  void Reset();

  /// The process-wide registry the pipeline instrumentation writes to.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace goalex::obs

#endif  // GOALEX_OBS_METRICS_H_
