#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/workload.h"

namespace perfbench {

size_t SamplesBeyond(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t position = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return position >= n ? 0 : n - position;
}

double TailQuantile(size_t n) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= kTailMinBeyond) return q;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

TailSummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TailSummary summary;
  summary.count = samples.size();
  summary.p50 = goalex::serve::SortedPercentile(samples, 0.5);
  summary.tail_quantile = TailQuantile(samples.size());
  summary.tail =
      summary.tail_quantile > 0.0
          ? goalex::serve::SortedPercentile(samples, summary.tail_quantile)
          : summary.p50;
  return summary;
}

TailSummary SummarizeWindows(
    const std::vector<std::vector<double>>& windows) {
  std::vector<double> all;
  std::vector<double> tails;
  TailSummary summary;
  summary.windows = 0;
  summary.tail_quantile = 1.0;
  for (const std::vector<double>& window : windows) {
    if (window.empty()) continue;
    all.insert(all.end(), window.begin(), window.end());
    const TailSummary part = Summarize(window);
    tails.push_back(part.tail);
    summary.tail_quantile = std::min(summary.tail_quantile, part.tail_quantile);
    ++summary.windows;
  }
  if (tails.empty()) return TailSummary{};
  summary.tail = Median(std::move(tails));
  summary.count = all.size();
  summary.p50 = Summarize(std::move(all)).p50;
  return summary;
}

std::vector<std::vector<double>> CutWindows(const std::vector<double>& samples,
                                            size_t size) {
  const size_t width = std::max<size_t>(1, size);
  const size_t count = std::max<size_t>(1, samples.size() / width);
  std::vector<std::vector<double>> windows(count);
  for (size_t i = 0; i < samples.size(); ++i) {
    windows[std::min(count - 1, i / width)].push_back(samples[i]);
  }
  return windows;
}

double UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  bool open = false;
  Interval current;
  for (const Interval& interval : intervals) {
    if (interval.end <= interval.start) continue;
    if (open && interval.start <= current.end) {
      current.end = std::max(current.end, interval.end);
      continue;
    }
    if (open) total += current.end - current.start;
    current = interval;
    open = true;
  }
  if (open) total += current.end - current.start;
  return total;
}

double UncoveredTime(const Interval& parent,
                     const std::vector<Interval>& children) {
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& child : children) {
    Interval c{std::max(child.start, parent.start),
               std::min(child.end, parent.end)};
    if (c.end > c.start) clipped.push_back(c);
  }
  const double length = std::max(0.0, parent.end - parent.start);
  return std::max(0.0, length - UnionLength(std::move(clipped)));
}

double DueTimeLatency(double due_s, double submit_s, double service_s) {
  return (submit_s - due_s) + service_s;
}

RegistryDelta::RegistryDelta(const goalex::obs::RegistrySnapshot& before,
                             const goalex::obs::RegistrySnapshot& after) {
  std::map<std::string, uint64_t> base_counters;
  for (const auto& sample : before.counters) {
    base_counters[sample.name] = sample.value;
  }
  for (const auto& sample : after.counters) {
    counters_[sample.name] = sample.value - base_counters[sample.name];
  }
  std::map<std::string, std::pair<uint64_t, double>> base_histograms;
  for (const auto& sample : before.histograms) {
    base_histograms[sample.name] = {sample.snapshot.count,
                                    sample.snapshot.sum};
  }
  for (const auto& sample : after.histograms) {
    const auto& base = base_histograms[sample.name];
    histograms_[sample.name] = {sample.snapshot.count - base.first,
                                sample.snapshot.sum - base.second};
  }
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

uint64_t RegistryDelta::HistogramCount(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? 0 : it->second.first;
}

double RegistryDelta::HistogramSum(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.second;
}

double RegistryDelta::HistogramMean(const std::string& name) const {
  const uint64_t count = HistogramCount(name);
  return count == 0 ? 0.0 : HistogramSum(name) / static_cast<double>(count);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].first) + ": {\"value\": " +
           JsonNumber(metrics[i].second.value) +
           ", \"unit\": " + JsonString(metrics[i].second.unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
