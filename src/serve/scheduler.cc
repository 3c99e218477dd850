#include "serve/scheduler.h"

#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/check.h"

namespace goalex::serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point from,
                      SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBulk:
      return "bulk";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const core::ServeConfig& config)
    : max_queue_depth_(config.max_queue_depth),
      max_queue_delay_seconds_(config.EffectiveQueueDelaySeconds()),
      alpha_(config.service_time_ema_alpha) {}

Status AdmissionController::Admit(size_t queue_depth,
                                  Priority priority) const {
  // Bulk requests are held to half of both bounds so interactive traffic
  // keeps admission headroom while the service is loaded with backfill.
  const double fraction = priority == Priority::kBulk ? 0.5 : 1.0;
  const double depth_bound =
      static_cast<double>(max_queue_depth_) * fraction;
  if (static_cast<double>(queue_depth) >= depth_bound) {
    return ResourceExhaustedError(
        std::string("serve: queue depth ") + std::to_string(queue_depth) +
        " at " + PriorityName(priority) + " bound " +
        std::to_string(static_cast<int64_t>(depth_bound)));
  }
  const double service_seconds = EstimatedServiceSeconds();
  if (max_queue_delay_seconds_ > 0.0 && service_seconds > 0.0) {
    const double estimated_delay =
        static_cast<double>(queue_depth) * service_seconds;
    if (estimated_delay > max_queue_delay_seconds_ * fraction) {
      return ResourceExhaustedError(
          "serve: estimated queueing delay " +
          std::to_string(estimated_delay * 1000.0) + " ms exceeds the " +
          PriorityName(priority) + " bound " +
          std::to_string(max_queue_delay_seconds_ * fraction * 1000.0) +
          " ms");
    }
  }
  return Status::Ok();
}

void AdmissionController::ObserveBatch(double batch_seconds,
                                       size_t batch_size) {
  if (batch_size == 0) return;
  const double per_request = batch_seconds / static_cast<double>(batch_size);
  double expected = ema_service_seconds_.load(std::memory_order_relaxed);
  double next;
  do {
    next = expected == 0.0 ? per_request
                           : alpha_ * per_request + (1.0 - alpha_) * expected;
  } while (!ema_service_seconds_.compare_exchange_weak(
      expected, next, std::memory_order_relaxed));
}

Scheduler::Scheduler(const core::ServeConfig& config, BatchHandler handler)
    : config_(config),
      handler_(std::move(handler)),
      admission_(config) {
  GOALEX_CHECK(handler_ != nullptr);
  Status valid = config_.Validate();
  GOALEX_CHECK_MSG(valid.ok(), "invalid ServeConfig: " << valid);
  ResolveMetrics();
  start_time_ = SteadyClock::now();
  scheduler_thread_ = std::thread([this] { Loop(); });
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::ResolveMetrics() {
  if (!obs::Active()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  request_seconds_ = registry.GetLatencyHistogram("serve.request.seconds");
  request_seconds_by_priority_[static_cast<size_t>(Priority::kInteractive)] =
      registry.GetLatencyHistogram("serve.request.interactive.seconds");
  request_seconds_by_priority_[static_cast<size_t>(Priority::kBulk)] =
      registry.GetLatencyHistogram("serve.request.bulk.seconds");
  queue_wait_seconds_ =
      registry.GetLatencyHistogram("serve.queue.wait.seconds");
  batch_size_hist_ =
      registry.GetHistogram("serve.batch.size", obs::DefaultSizeBounds());
  admitted_counter_ = registry.GetCounter("serve.admitted");
  shed_counter_ = registry.GetCounter("serve.shed");
  completed_counter_ = registry.GetCounter("serve.completed");
  close_max_size_counter_ =
      registry.GetCounter("serve.batch.close.max_size");
  close_deadline_counter_ =
      registry.GetCounter("serve.batch.close.deadline");
  close_drain_counter_ = registry.GetCounter("serve.batch.close.drain");
  queue_depth_gauge_ = registry.GetGauge("serve.queue_depth");
  qps_gauge_ = registry.GetGauge("serve.qps");
}

StatusOr<ResultFuture> Scheduler::Submit(data::Objective objective,
                                         Priority priority) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // The in_submit_ guard lets Stop() wait out every Submit that already
  // passed the accept gate, so no push can race past the shutdown drain.
  in_submit_.fetch_add(1, std::memory_order_acq_rel);
  if (!accepting_.load(std::memory_order_acquire)) {
    in_submit_.fetch_sub(1, std::memory_order_release);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return FailedPreconditionError("serve: scheduler is stopped");
  }
  Status admit = admission_.Admit(queue_.depth(), priority);
  if (!admit.ok()) {
    in_submit_.fetch_sub(1, std::memory_order_release);
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (shed_counter_ != nullptr && obs::Enabled()) {
      shed_counter_->Increment();
    }
    return admit;
  }

  Request* request = new Request;
  request->objective = std::move(objective);
  request->priority = priority;
  request->enqueue_time = SteadyClock::now();
  ResultFuture future = request->promise.get_future();
  queue_.Push(request);
  in_submit_.fetch_sub(1, std::memory_order_release);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (admitted_counter_ != nullptr && obs::Enabled()) {
    admitted_counter_->Increment();
    queue_depth_gauge_->Set(static_cast<double>(queue_.depth()));
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_signal_ = true;
  }
  wake_cv_.notify_one();
  return future;
}

void Scheduler::Loop() {
  std::vector<Request*> batch;
  const size_t max_batch = static_cast<size_t>(config_.max_batch_size);
  for (;;) {
    queue_.Drain();
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stopping = stop_;
    }
    if (stopping) {
      // A Submit may have pushed between the drain above and the stop_
      // read. Stop() sets stop_ only after every in-flight Submit's push
      // has landed, so one more drain — strictly after observing stop_ —
      // is guaranteed to see every request that will ever exist; exit
      // only when it leaves nothing behind.
      queue_.Drain();
      if (queue_.ready_size() == 0) break;
    }
    const size_t ready = queue_.ready_size();

    if (ready == 0) {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [this] { return wake_signal_ || stop_; });
      wake_signal_ = false;
      continue;
    }

    // Work-conserving close: the handler is free and a request is ready,
    // so dispatch now. Whatever arrives while this batch runs is drained
    // into the next one, so batches grow with load on their own.
    CloseTrigger trigger = CloseTrigger::kIdle;
    if (ready >= max_batch) {
      trigger = CloseTrigger::kMaxSize;
    } else if (stopping) {
      trigger = CloseTrigger::kDrain;  // Shutdown flush of a partial batch.
    }

    batch.clear();
    while (batch.size() < max_batch) {
      Request* request = queue_.Pop();
      if (request == nullptr) break;
      batch.push_back(request);
    }
    if (queue_depth_gauge_ != nullptr && obs::Enabled()) {
      queue_depth_gauge_->Set(static_cast<double>(queue_.depth()));
    }
    RunBatch(batch, trigger);
  }
}

void Scheduler::RunBatch(std::vector<Request*>& batch, CloseTrigger trigger) {
  if (batch.empty()) return;
  const SteadyClock::time_point batch_start = SteadyClock::now();

  std::vector<const data::Objective*> objectives;
  objectives.reserve(batch.size());
  for (const Request* request : batch) {
    objectives.push_back(&request->objective);
  }

  std::vector<data::DetailRecord> records;
  Status failure;
  try {
    records = handler_(objectives);
    if (records.size() != batch.size()) {
      failure = InternalError(
          "serve: batch handler returned " + std::to_string(records.size()) +
          " records for " + std::to_string(batch.size()) + " requests");
    }
  } catch (const std::exception& e) {
    failure = InternalError(std::string("serve: batch handler threw: ") +
                            e.what());
  } catch (...) {
    failure = InternalError("serve: batch handler threw");
  }

  const SteadyClock::time_point batch_end = SteadyClock::now();
  // Only successful batches feed the service-time EMA: a fast-failing
  // handler would otherwise drive the estimate toward zero and disable
  // delay-based shedding exactly while the service is erroring.
  if (failure.ok()) {
    admission_.ObserveBatch(SecondsBetween(batch_start, batch_end),
                            batch.size());
  }

  // All accounting lands before any promise is fulfilled, so stats() read
  // after a future resolves already reflects that request's batch.
  const bool instrument = request_seconds_ != nullptr && obs::Enabled();
  batches_.fetch_add(1, std::memory_order_relaxed);
  switch (trigger) {
    case CloseTrigger::kMaxSize:
      closed_max_size_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseTrigger::kIdle:
      closed_deadline_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseTrigger::kDrain:
      closed_drain_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  completed_.fetch_add(batch.size(), std::memory_order_relaxed);
  if (!failure.ok()) {
    failed_.fetch_add(batch.size(), std::memory_order_relaxed);
  }
  if (instrument) {
    batch_size_hist_->Observe(static_cast<double>(batch.size()));
    completed_counter_->Increment(batch.size());
    switch (trigger) {
      case CloseTrigger::kMaxSize:
        close_max_size_counter_->Increment();
        break;
      case CloseTrigger::kIdle:
        close_deadline_counter_->Increment();
        break;
      case CloseTrigger::kDrain:
        close_drain_counter_->Increment();
        break;
    }
    const double elapsed = SecondsBetween(start_time_, batch_end);
    if (elapsed > 0.0) {
      qps_gauge_->Set(
          static_cast<double>(completed_.load(std::memory_order_relaxed)) /
          elapsed);
    }
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    Request* request = batch[i];
    const double latency =
        SecondsBetween(request->enqueue_time, batch_end);
    if (instrument) {
      request_seconds_->Observe(latency);
      request_seconds_by_priority_[static_cast<size_t>(request->priority)]
          ->Observe(latency);
      queue_wait_seconds_->Observe(
          SecondsBetween(request->enqueue_time, batch_start));
    }
    if (failure.ok()) {
      Completion completion;
      completion.record = std::move(records[i]);
      completion.latency_seconds = latency;
      completion.priority = request->priority;
      request->promise.set_value(std::move(completion));
    } else {
      request->promise.set_value(failure);
    }
    delete request;
  }
}

void Scheduler::Stop() {
  std::call_once(stop_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    // Wait out Submits already past the accept gate so every push that
    // can ever land is visible before the scheduler's shutdown drain.
    while (in_submit_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_ = true;
      wake_signal_ = true;
    }
    wake_cv_.notify_all();
    if (scheduler_thread_.joinable()) scheduler_thread_.join();
  });
}

ServeStats Scheduler::stats() const {
  ServeStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.closed_max_size = closed_max_size_.load(std::memory_order_relaxed);
  stats.closed_deadline = closed_deadline_.load(std::memory_order_relaxed);
  stats.closed_drain = closed_drain_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace goalex::serve
