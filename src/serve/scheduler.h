#ifndef GOALEX_SERVE_SCHEDULER_H_
#define GOALEX_SERVE_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "data/schema.h"
#include "obs/metrics.h"
#include "serve/request.h"
#include "serve/request_queue.h"

namespace goalex::serve {

/// SLO-aware admission control: load-sheds (kResourceExhausted) when the
/// queue is deeper than the configured bound, or when the estimated
/// queueing delay — depth times an EMA of observed per-request service
/// time — exceeds the delay budget (by default the whole SLO, since no
/// request waits for a batch to fill; DESIGN.md §11). Bulk requests are
/// held to half of both bounds so interactive traffic keeps headroom
/// under overload.
///
/// Admission is best-effort by design: concurrent producers race the
/// depth read, so the bound can be overshot by at most the number of
/// in-flight Submit calls — never unboundedly.
class AdmissionController {
 public:
  explicit AdmissionController(const core::ServeConfig& config);

  /// Decides admission for a request seeing `queue_depth` waiters.
  Status Admit(size_t queue_depth, Priority priority) const;

  /// Scheduler feedback: folds a successfully completed batch into the
  /// service-time EMA (seconds per request). The scheduler does not call
  /// this for failed batches — error-path timings would drag the estimate
  /// toward zero and disable delay-based shedding during an outage.
  void ObserveBatch(double batch_seconds, size_t batch_size);

  /// Current per-request service-time estimate (0 until the first batch).
  double EstimatedServiceSeconds() const {
    return ema_service_seconds_.load(std::memory_order_relaxed);
  }

 private:
  const int32_t max_queue_depth_;
  const double max_queue_delay_seconds_;  ///< 0 disables the delay bound.
  const double alpha_;
  std::atomic<double> ema_service_seconds_{0.0};
};

/// Counters of a scheduler's lifetime, independent of the obs layer so
/// tests and benches can assert on them with metrics compiled out.
struct ServeStats {
  uint64_t submitted = 0;   ///< Submit calls, admitted or not.
  uint64_t admitted = 0;
  uint64_t shed = 0;        ///< Rejected with kResourceExhausted.
  uint64_t rejected = 0;    ///< Rejected for other reasons (stopped).
  uint64_t completed = 0;
  uint64_t failed = 0;      ///< Completed with a non-OK status.
  uint64_t batches = 0;
  uint64_t closed_max_size = 0;  ///< Batches of exactly max_batch_size.
  /// Batches dispatched below max_batch_size because the handler was free
  /// (the name predates the work-conserving policy; it is kept for the
  /// readers of this field and of serve.batch.close.deadline).
  uint64_t closed_deadline = 0;
  uint64_t closed_drain = 0;     ///< Partial batches flushed at shutdown.
};

/// Continuous-batching request scheduler: the serving backbone that turns
/// a batch extraction function into a long-running service.
///
///   producers --lock-free push--> RequestQueue --drain--> batch former
///        ^                                                    |
///        +-- admission control (shed)   dispatch when free <--+
///
/// A dedicated scheduler thread forms batches work-conservingly: whenever
/// the handler is free and at least one request is ready, it pops up to
/// max_batch_size requests and dispatches them at once — it never waits
/// for a batch to fill. Requests that arrive while a batch runs form the
/// next batch, so batch size tracks load. Dequeue is priority-aware
/// (interactive strictly before bulk). Each batch runs synchronously on
/// the scheduler thread through the BatchHandler (typically
/// DetailExtractor::ExtractBatch, which may fan out on a thread pool);
/// per-request promises deliver results.
///
/// Shutdown is clean: Stop() rejects new submissions, then drains every
/// admitted request through the handler before joining, so no admitted
/// future is ever abandoned.
class Scheduler {
 public:
  /// Maps a formed batch to one record per request, index-aligned. Must
  /// be safe to call from the scheduler thread; exceptions are caught and
  /// fail that batch's requests with kInternal.
  using BatchHandler = std::function<std::vector<data::DetailRecord>(
      const std::vector<const data::Objective*>&)>;

  /// Spawns the scheduler thread. `config` must Validate().
  Scheduler(const core::ServeConfig& config, BatchHandler handler);

  /// Stops (draining admitted requests) and joins.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits one objective. Returns the completion future, or
  /// kResourceExhausted when admission sheds the request, or
  /// kFailedPrecondition after Stop(). Safe from any thread.
  StatusOr<ResultFuture> Submit(data::Objective objective,
                                Priority priority = Priority::kInteractive);

  /// Stops accepting requests, drains everything already admitted through
  /// the handler, and joins the scheduler thread. Idempotent.
  void Stop();

  /// Point-in-time counters (safe from any thread).
  ServeStats stats() const;

  /// Pending (admitted, unscheduled) request count.
  size_t queue_depth() const { return queue_.depth(); }

  const core::ServeConfig& config() const { return config_; }
  const AdmissionController& admission() const { return admission_; }

 private:
  /// Why a batch closed: it was full, the handler was free (a partial
  /// batch, counted in ServeStats::closed_deadline), or shutdown flushed it.
  enum class CloseTrigger { kMaxSize, kIdle, kDrain };

  void Loop();
  void RunBatch(std::vector<Request*>& batch, CloseTrigger trigger);
  void ResolveMetrics();

  const core::ServeConfig config_;
  const BatchHandler handler_;

  RequestQueue queue_;
  AdmissionController admission_;

  // Producer -> scheduler wakeup handshake. The queue itself is
  // lock-free; this mutex only covers the condition-variable signalling
  // (and is held for a flag flip, never across work).
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool wake_signal_ = false;
  bool stop_ = false;

  std::atomic<bool> accepting_{true};
  std::atomic<int32_t> in_submit_{0};  ///< Submits past the accept gate.
  std::once_flag stop_once_;
  std::thread scheduler_thread_;

  // Lifetime counters (relaxed atomics; see ServeStats).
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> closed_max_size_{0};
  std::atomic<uint64_t> closed_deadline_{0};
  std::atomic<uint64_t> closed_drain_{0};

  std::chrono::steady_clock::time_point start_time_;

  // serve.* observability handles (null when instrumentation is off).
  obs::Histogram* request_seconds_ = nullptr;
  obs::Histogram* request_seconds_by_priority_[kPriorityCount] = {nullptr,
                                                                  nullptr};
  obs::Histogram* queue_wait_seconds_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  obs::Counter* close_max_size_counter_ = nullptr;
  obs::Counter* close_deadline_counter_ = nullptr;
  obs::Counter* close_drain_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* qps_gauge_ = nullptr;
};

}  // namespace goalex::serve

#endif  // GOALEX_SERVE_SCHEDULER_H_
