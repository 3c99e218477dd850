#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// One finished span, recorded by the benchmark around a call into a
/// layer of the program.
struct SpanRecord {
  const char* name = "";  ///< Static string, "<layer>.<call>".
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  double start_s = 0.0;
  double end_s = 0.0;
  uint32_t thread = 0;
};

/// Process-wide in-memory span store. Each thread appends to its own
/// buffer, so recording never contends; Drain() collects every buffer
/// once the traced window is over. When disabled, a span costs one
/// relaxed atomic load and no clock read.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Parent given to spans that name none: set by the benchmark around a
  /// call whose callbacks run on the program's own worker threads.
  void SetAmbientParent(uint64_t id) {
    ambient_parent_.store(id, std::memory_order_relaxed);
  }
  uint64_t ambient_parent() const {
    return ambient_parent_.load(std::memory_order_relaxed);
  }

  void Record(const SpanRecord& span);

  /// Removes and returns every recorded span, ordered by start time.
  std::vector<SpanRecord> Drain();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<SpanRecord> spans;
    uint32_t thread = 0;
  };

  Tracer() = default;
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> ambient_parent_{0};
  std::mutex mu_;  ///< Guards buffers_.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. `parent` < 0 takes the tracer's ambient parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t parent = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off).
  uint64_t id() const { return span_.id; }

 private:
  bool armed_ = false;
  SpanRecord span_;
};

/// Summed duration of spans named `name`.
double SpanBusySeconds(const std::vector<SpanRecord>& spans,
                       const std::string& name);
/// Number of spans named `name`.
uint64_t SpanCount(const std::vector<SpanRecord>& spans,
                   const std::string& name);

/// Self time of the spans named `parent_name`: for each, the part of its
/// interval that none of its children named in `child_names` covers.
double SelfSeconds(const std::vector<SpanRecord>& spans,
                   const std::string& parent_name,
                   const std::vector<std::string>& child_names);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
