#include "trace.h"

#include <algorithm>
#include <chrono>
#include <map>

namespace perfbench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

Tracer& Tracer::Get() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  // The tracer is never destroyed, so a cached buffer pointer stays valid
  // for the thread's lifetime.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<uint32_t>(buffers_.size());
  }
  return buffer;
}

void Tracer::Record(const SpanRecord& span) {
  Buffer* buffer = ThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
  buffer->spans.back().thread = buffer->thread;
}

std::vector<SpanRecord> Tracer::Drain() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_s < b.start_s;
            });
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int64_t parent) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  armed_ = true;
  span_.name = name;
  span_.id = tracer.NewId();
  span_.parent = parent < 0 ? tracer.ambient_parent()
                            : static_cast<uint64_t>(parent);
  span_.start_s = NowSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  span_.end_s = NowSeconds();
  Tracer::Get().Record(span_);
}

double SpanBusySeconds(const std::vector<SpanRecord>& spans,
                       const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& span : spans) {
    if (name == span.name) total += span.end_s - span.start_s;
  }
  return total;
}

uint64_t SpanCount(const std::vector<SpanRecord>& spans,
                   const std::string& name) {
  uint64_t count = 0;
  for (const SpanRecord& span : spans) {
    if (name == span.name) ++count;
  }
  return count;
}

double SelfSeconds(const std::vector<SpanRecord>& spans,
                   const std::string& parent_name,
                   const std::vector<std::string>& child_names) {
  std::map<uint64_t, Interval> parents;
  for (const SpanRecord& span : spans) {
    if (parent_name == span.name) {
      parents[span.id] = {span.start_s, span.end_s};
    }
  }
  std::map<uint64_t, std::vector<Interval>> children;
  for (const SpanRecord& span : spans) {
    if (parents.count(span.parent) == 0) continue;
    if (std::find(child_names.begin(), child_names.end(), span.name) ==
        child_names.end()) {
      continue;
    }
    children[span.parent].push_back({span.start_s, span.end_s});
  }
  double total = 0.0;
  for (const auto& [id, interval] : parents) {
    total += UncoveredTime(interval, children[id]);
  }
  return total;
}

}  // namespace perfbench
