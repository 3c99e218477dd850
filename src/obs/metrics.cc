#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace goalex::obs {

namespace {

std::atomic<bool> g_enabled{true};

/// CAS-add for atomics without native fetch_add (double on some targets).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double v) {
  double expected = target.load(std::memory_order_relaxed);
  while (v < expected && !target.compare_exchange_weak(
                             expected, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double v) {
  double expected = target.load(std::memory_order_relaxed);
  while (v > expected && !target.compare_exchange_weak(
                             expected, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void Gauge::Add(double delta) { AtomicAdd(value_, delta); }

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    GOALEX_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                     "histogram bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  Reset();
}

void Histogram::Observe(double v) {
  // First bound >= v: le semantics, so an observation exactly on a bound
  // belongs to that bound's bucket. Past the last bound lands in +inf.
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMin(min_, v);
  AtomicMax(max_, v);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (snap.count == 0) {
    snap.min = 0.0;
    snap.max = 0.0;
  }
  return snap;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(count);
  double estimate = bounds.back();
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) break;  // +inf bucket: largest finite bound.
    double upper = bounds[i];
    double lower = i == 0 ? 0.0 : bounds[i - 1];
    if (buckets[i] == 0) {
      estimate = upper;
      break;
    }
    // Linear interpolation within the bucket.
    double into =
        (rank - static_cast<double>(cumulative - buckets[i])) /
        static_cast<double>(buckets[i]);
    estimate = lower + (upper - lower) * into;
    break;
  }
  // Interpolation spreads a bucket's observations over its whole width;
  // the observed extremes are tighter, so no quantile leaves [min, max].
  return std::clamp(estimate, min, max);
}

const std::vector<double>& DefaultLatencyBounds() {
  static const std::vector<double>* const kBounds = [] {
    auto* bounds = new std::vector<double>();
    // Log-linear (HDR-style), 100ns .. 95s: each decade is cut linearly in
    // steps of a tenth of it from 1x to 2x, two tenths from 2x to 5x and
    // five tenths from 5x to 10x, so no bucket is more than 10% wider than
    // its lower bound while the bounds stay round numbers. Per-objective
    // stages (decode, weak labeling) run in a few microseconds, so the
    // ladder reaches well below 10us.
    for (int exponent = -8; exponent <= 0; ++exponent) {
      const double tenth = std::pow(10.0, exponent);
      for (int tenths = 10; tenths < 100;
           tenths += tenths < 20 ? 1 : tenths < 50 ? 2 : 5) {
        bounds->push_back(tenths * tenth);
      }
    }
    return bounds;
  }();
  return *kBounds;
}

const std::vector<double>& DefaultSizeBounds() {
  static const std::vector<double>* const kBounds = [] {
    auto* bounds = new std::vector<double>();
    for (double b = 1.0; b <= 16384.0; b *= 4.0) bounds->push_back(b);
    return bounds;
  }();
  return *kBounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return slot.get();
}

Histogram* MetricsRegistry::GetLatencyHistogram(const std::string& name) {
  return GetHistogram(name, DefaultLatencyBounds());
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back({name, histogram->Snapshot()});
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* const kRegistry = new MetricsRegistry();
  return *kRegistry;
}

}  // namespace goalex::obs
