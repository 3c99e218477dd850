// Tests of the extraction service: the lock-light request queue, the
// SLO-aware admission controller, the work-conserving batching scheduler
// (priority ordering, batch formation behind a busy handler, shedding,
// clean shutdown with in-flight requests), the synthetic traffic generator, and end-to-end
// parity between the served path and direct extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/extractor.h"
#include "data/generator.h"
#include "serve/request_queue.h"
#include "serve/scheduler.h"
#include "serve/service.h"
#include "serve/workload.h"

namespace goalex::serve {
namespace {

data::Objective MakeObjective(const std::string& id) {
  data::Objective objective;
  objective.id = id;
  objective.text = "reduce CO2 emissions by 30% by 2030";
  return objective;
}

core::ServeConfig FastConfig() {
  core::ServeConfig config;
  config.max_batch_size = 4;
  config.max_queue_depth = 256;
  return config;
}

/// Records the order and batching of everything the scheduler dispatches,
/// echoing each objective id back through its record.
struct HandlerLog {
  std::mutex mu;
  std::vector<std::string> order;
  std::vector<size_t> batch_sizes;

  std::vector<std::string> Order() {
    std::lock_guard<std::mutex> lock(mu);
    return order;
  }
  std::vector<size_t> BatchSizes() {
    std::lock_guard<std::mutex> lock(mu);
    return batch_sizes;
  }
};

/// Lets a test hold the scheduler thread inside its first handler call
/// while more requests are queued behind it.
struct FirstCallGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> calls{0};
  std::atomic<bool> entered{false};

  void BlockIfFirst() {
    if (calls.fetch_add(1) != 0) return;
    entered.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void AwaitEntered() {
    while (!entered.load()) std::this_thread::yield();
  }
};

Scheduler::BatchHandler EchoHandler(HandlerLog* log,
                                    FirstCallGate* gate = nullptr) {
  return [log, gate](const std::vector<const data::Objective*>& batch) {
    if (gate != nullptr) gate->BlockIfFirst();
    if (log != nullptr) {
      std::lock_guard<std::mutex> lock(log->mu);
      log->batch_sizes.push_back(batch.size());
      for (const data::Objective* objective : batch) {
        log->order.push_back(objective->id);
      }
    }
    std::vector<data::DetailRecord> records;
    records.reserve(batch.size());
    for (const data::Objective* objective : batch) {
      data::DetailRecord record;
      record.objective_id = objective->id;
      record.objective_text = objective->text;
      records.push_back(std::move(record));
    }
    return records;
  };
}

// ---------------------------------------------------------------------------
// RequestQueue

Request* NewRequest(const std::string& id, Priority priority) {
  Request* request = new Request;
  request->objective = MakeObjective(id);
  request->priority = priority;
  request->enqueue_time = std::chrono::steady_clock::now();
  return request;
}

TEST(RequestQueueTest, PopsInteractiveBeforeBulkFifoWithinClass) {
  RequestQueue queue;
  queue.Push(NewRequest("b0", Priority::kBulk));
  queue.Push(NewRequest("i0", Priority::kInteractive));
  queue.Push(NewRequest("b1", Priority::kBulk));
  queue.Push(NewRequest("i1", Priority::kInteractive));
  EXPECT_EQ(queue.depth(), 4u);

  EXPECT_EQ(queue.Drain(), 4u);
  EXPECT_EQ(queue.ready_size(), 4u);

  std::vector<std::string> order;
  for (Request* request = queue.Pop(); request != nullptr;
       request = queue.Pop()) {
    order.push_back(request->objective.id);
    request->promise.set_value(FailedPreconditionError("test drop"));
    delete request;
  }
  EXPECT_EQ(order, (std::vector<std::string>{"i0", "i1", "b0", "b1"}));
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(RequestQueueTest, ConcurrentPushersAllArriveInArrivalOrderPerThread) {
  RequestQueue queue;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&queue, t] {
      for (int i = 0; i < kPerThread; ++i) {
        queue.Push(NewRequest(std::string("p").append(std::to_string(t)) +
                                  "-" + std::to_string(i),
                              Priority::kInteractive));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  size_t drained = 0;
  while (drained < kThreads * kPerThread) drained += queue.Drain();
  EXPECT_EQ(drained, static_cast<size_t>(kThreads * kPerThread));

  // FIFO per producer: each thread's indices must come out increasing.
  int last_index[kThreads] = {-1, -1, -1, -1};
  for (Request* request = queue.Pop(); request != nullptr;
       request = queue.Pop()) {
    const std::string& id = request->objective.id;
    int thread_id = id[1] - '0';
    int index = std::stoi(id.substr(3));
    EXPECT_GT(index, last_index[thread_id]) << id;
    last_index[thread_id] = index;
    request->promise.set_value(FailedPreconditionError("test drop"));
    delete request;
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(last_index[t], kPerThread - 1);
  }
}

TEST(RequestQueueTest, DestructorReclaimsUndrainedRequests) {
  RequestQueue queue;
  queue.Push(NewRequest("a", Priority::kInteractive));
  queue.Push(NewRequest("b", Priority::kBulk));
  queue.Drain();
  queue.Push(NewRequest("c", Priority::kInteractive));
  // Destructor must free both the ready FIFO and the undrained stack
  // (ASAN would flag a leak here).
}

// ---------------------------------------------------------------------------
// AdmissionController

TEST(AdmissionControllerTest, ShedsAtDepthBoundAndHoldsBulkToHalf) {
  core::ServeConfig config;
  config.max_queue_depth = 8;
  AdmissionController admission(config);

  EXPECT_TRUE(admission.Admit(0, Priority::kInteractive).ok());
  EXPECT_TRUE(admission.Admit(7, Priority::kInteractive).ok());
  EXPECT_EQ(admission.Admit(8, Priority::kInteractive).code(),
            StatusCode::kResourceExhausted);

  EXPECT_TRUE(admission.Admit(3, Priority::kBulk).ok());
  EXPECT_EQ(admission.Admit(4, Priority::kBulk).code(),
            StatusCode::kResourceExhausted);
}

TEST(AdmissionControllerTest, ShedsWhenEstimatedDelayExceedsSloBudget) {
  core::ServeConfig config;
  config.max_queue_depth = 1024;
  config.slo_p99_ms = 45.0;  // Delay budget: the whole SLO, 45 ms.
  AdmissionController admission(config);

  // No service-time estimate yet: the delay bound is inactive.
  EXPECT_TRUE(admission.Admit(100, Priority::kInteractive).ok());

  admission.ObserveBatch(/*batch_seconds=*/0.08, /*batch_size=*/8);
  EXPECT_DOUBLE_EQ(admission.EstimatedServiceSeconds(), 0.01);

  // 4 waiters * 10 ms = 40 ms < 45 ms budget -> admit.
  EXPECT_TRUE(admission.Admit(4, Priority::kInteractive).ok());
  // 5 waiters * 10 ms = 50 ms > 45 ms budget -> shed.
  EXPECT_EQ(admission.Admit(5, Priority::kInteractive).code(),
            StatusCode::kResourceExhausted);
  // Bulk is held to half the budget: 3 * 10 ms > 22.5 ms -> shed.
  EXPECT_EQ(admission.Admit(3, Priority::kBulk).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(admission.Admit(2, Priority::kBulk).ok());
}

TEST(AdmissionControllerTest, EmaConvergesTowardRecentServiceTime) {
  core::ServeConfig config;
  config.service_time_ema_alpha = 0.5;
  AdmissionController admission(config);
  admission.ObserveBatch(0.010, 1);  // Seeds at 10 ms.
  admission.ObserveBatch(0.020, 1);  // 0.5*20 + 0.5*10 = 15 ms.
  EXPECT_DOUBLE_EQ(admission.EstimatedServiceSeconds(), 0.015);
}

// ---------------------------------------------------------------------------
// ServeConfig

TEST(ServeConfigTest, ValidatesBounds) {
  core::ServeConfig config;
  EXPECT_TRUE(config.Validate().ok());

  core::ServeConfig bad = config;
  bad.max_batch_size = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.service_time_ema_alpha = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.db_wal_fsync_interval = -1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.max_queue_depth = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.slo_p99_ms = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = config;
  bad.service_time_ema_alpha = 1.5;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ServeConfigTest, EffectiveQueueDelayDerivesFromSlo) {
  core::ServeConfig config;
  config.slo_p99_ms = 50.0;
  config.max_queue_delay_ms = 0.0;
  // No batch-formation wait remains, so the whole SLO is the budget.
  EXPECT_DOUBLE_EQ(config.EffectiveQueueDelaySeconds(), 0.050);

  config.max_queue_delay_ms = 20.0;  // Explicit bound wins.
  EXPECT_DOUBLE_EQ(config.EffectiveQueueDelaySeconds(), 0.020);
  config.max_queue_delay_ms = 80.0;  // Even one looser than the SLO.
  EXPECT_DOUBLE_EQ(config.EffectiveQueueDelaySeconds(), 0.080);

  config.max_queue_delay_ms = 0.0;
  config.slo_p99_ms = -5.0;  // Budget can never go negative.
  EXPECT_DOUBLE_EQ(config.EffectiveQueueDelaySeconds(), 0.0);
}

// ---------------------------------------------------------------------------
// Scheduler

TEST(SchedulerTest, CompletesAllSubmittedRequests) {
  HandlerLog log;
  Scheduler scheduler(FastConfig(), EchoHandler(&log));

  std::vector<ResultFuture> futures;
  for (int i = 0; i < 10; ++i) {
    StatusOr<ResultFuture> submitted =
        scheduler.Submit(MakeObjective("r" + std::to_string(i)));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(submitted).value());
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    StatusOr<Completion> completion = futures[i].get();
    ASSERT_TRUE(completion.ok()) << completion.status();
    EXPECT_EQ(completion->record.objective_id, "r" + std::to_string(i));
    EXPECT_GE(completion->latency_seconds, 0.0);
  }
  scheduler.Stop();

  ServeStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.admitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.batches, 3u);  // 10 requests, max batch 4.
}

TEST(SchedulerTest, LoneRequestDispatchesAsBatchOfOne) {
  // A free handler takes a lone request at once: no timer, no wait for
  // company. The gate proves the handler is entered while nothing else
  // was ever submitted.
  core::ServeConfig config = FastConfig();
  config.max_batch_size = 8;
  HandlerLog log;
  FirstCallGate gate;
  Scheduler scheduler(config, EchoHandler(&log, &gate));

  ResultFuture lone = scheduler.Submit(MakeObjective("lone")).value();
  gate.AwaitEntered();
  gate.Open();
  EXPECT_TRUE(lone.get().ok());

  EXPECT_EQ(log.BatchSizes(), (std::vector<size_t>{1}));
  ServeStats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.closed_deadline, 1u);  // Partial: the handler was free.
  EXPECT_EQ(stats.closed_max_size, 0u);
  EXPECT_EQ(stats.closed_drain, 0u);
}

TEST(SchedulerTest, RequestsQueuedBehindBusyHandlerFormTheNextBatches) {
  // While the gate holds the handler on a first lone request, N more
  // arrive; once it is free they leave as batches of min(remaining,
  // max_batch_size), full ones counted as max-size closes and the
  // remainder as a partial close.
  constexpr size_t kMaxBatch = 4;
  for (size_t n : {1u, 3u, 4u, 9u}) {
    SCOPED_TRACE("queued behind the handler: " + std::to_string(n));
    core::ServeConfig config = FastConfig();
    config.max_batch_size = static_cast<int32_t>(kMaxBatch);
    HandlerLog log;
    FirstCallGate gate;
    Scheduler scheduler(config, EchoHandler(&log, &gate));

    ResultFuture first = scheduler.Submit(MakeObjective("first")).value();
    gate.AwaitEntered();
    std::vector<ResultFuture> futures;
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(
          scheduler
              .Submit(MakeObjective(std::string("q").append(std::to_string(i))))
              .value());
    }
    gate.Open();
    EXPECT_TRUE(first.get().ok());
    for (ResultFuture& future : futures) EXPECT_TRUE(future.get().ok());

    std::vector<size_t> expected_sizes = {1};
    for (size_t left = n; left > 0; left -= std::min(left, kMaxBatch)) {
      expected_sizes.push_back(std::min(left, kMaxBatch));
    }
    EXPECT_EQ(log.BatchSizes(), expected_sizes);
    std::vector<std::string> expected_order = {"first"};
    for (size_t i = 0; i < n; ++i) {
      expected_order.push_back(std::string("q").append(std::to_string(i)));
    }
    EXPECT_EQ(log.Order(), expected_order);

    ServeStats stats = scheduler.stats();
    EXPECT_EQ(stats.batches, expected_sizes.size());
    EXPECT_EQ(stats.closed_max_size, n / kMaxBatch);
    EXPECT_EQ(stats.closed_deadline, 1u + (n % kMaxBatch != 0 ? 1u : 0u));
    EXPECT_EQ(stats.closed_drain, 0u);
  }
}

TEST(SchedulerTest, InteractiveRequestsScheduleBeforeEarlierBulk) {
  core::ServeConfig config = FastConfig();
  config.max_batch_size = 1;  // One request per batch: total order.
  HandlerLog log;
  FirstCallGate gate;
  Scheduler scheduler(config, EchoHandler(&log, &gate));

  ResultFuture first =
      scheduler.Submit(MakeObjective("first"), Priority::kInteractive)
          .value();
  gate.AwaitEntered();  // Scheduler thread now held inside the handler.

  // Bulk arrives before interactive; dequeue must invert that.
  std::vector<ResultFuture> futures;
  futures.push_back(
      scheduler.Submit(MakeObjective("b0"), Priority::kBulk).value());
  futures.push_back(
      scheduler.Submit(MakeObjective("b1"), Priority::kBulk).value());
  futures.push_back(
      scheduler.Submit(MakeObjective("i0"), Priority::kInteractive).value());
  futures.push_back(
      scheduler.Submit(MakeObjective("i1"), Priority::kInteractive).value());

  gate.Open();
  EXPECT_TRUE(first.get().ok());
  for (ResultFuture& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_EQ(log.Order(), (std::vector<std::string>{"first", "i0", "i1",
                                                   "b0", "b1"}));
}

TEST(SchedulerTest, ShedsWithResourceExhaustedWhenQueueIsFull) {
  core::ServeConfig config = FastConfig();
  config.max_batch_size = 1;
  config.max_queue_depth = 2;
  HandlerLog log;
  FirstCallGate gate;
  Scheduler scheduler(config, EchoHandler(&log, &gate));

  ResultFuture in_flight = scheduler.Submit(MakeObjective("f")).value();
  gate.AwaitEntered();  // Queue is now empty but the service is busy.

  // Bulk sees half the depth bound (1): one admitted waiter sheds it.
  ResultFuture queued = scheduler.Submit(MakeObjective("q0")).value();
  StatusOr<ResultFuture> bulk =
      scheduler.Submit(MakeObjective("bulk"), Priority::kBulk);
  ASSERT_FALSE(bulk.ok());
  EXPECT_EQ(bulk.status().code(), StatusCode::kResourceExhausted);

  // Interactive fills to the bound, then sheds.
  ResultFuture queued2 = scheduler.Submit(MakeObjective("q1")).value();
  StatusOr<ResultFuture> shed = scheduler.Submit(MakeObjective("q2"));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  gate.Open();
  EXPECT_TRUE(in_flight.get().ok());
  EXPECT_TRUE(queued.get().ok());
  EXPECT_TRUE(queued2.get().ok());

  ServeStats stats = scheduler.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.admitted, 3u);
}

TEST(SchedulerTest, StopDrainsInFlightAndQueuedRequests) {
  core::ServeConfig config = FastConfig();
  config.max_batch_size = 4;
  // Six waiters fill the queue, so submits shed until Stop() closes the
  // accept gate; that tells the test when shutdown has begun.
  config.max_queue_depth = 6;
  HandlerLog log;
  FirstCallGate gate;
  Scheduler scheduler(config, EchoHandler(&log, &gate));

  std::vector<ResultFuture> futures;
  futures.push_back(scheduler.Submit(MakeObjective("s0")).value());
  gate.AwaitEntered();  // First batch (s0 alone) held in the handler.
  for (int i = 1; i < 7; ++i) {
    futures.push_back(
        scheduler.Submit(MakeObjective("s" + std::to_string(i))).value());
  }

  std::thread stopper([&scheduler] { scheduler.Stop(); });
  for (;;) {
    StatusOr<ResultFuture> probe = scheduler.Submit(MakeObjective("probe"));
    ASSERT_FALSE(probe.ok());
    if (probe.status().code() == StatusCode::kFailedPrecondition) break;
    EXPECT_EQ(probe.status().code(), StatusCode::kResourceExhausted);
    std::this_thread::yield();
  }
  // Stop() raises its stop flag right after closing the accept gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.Open();
  stopper.join();

  // Every admitted request was completed before Stop() returned.
  for (ResultFuture& future : futures) {
    StatusOr<Completion> completion = future.get();
    EXPECT_TRUE(completion.ok()) << completion.status();
  }
  ServeStats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, 7u);
  EXPECT_EQ(stats.completed, 7u);
  // 6 queued = one full batch of 4 + a partial 2 flushed by the drain.
  EXPECT_EQ(log.BatchSizes(), (std::vector<size_t>{1, 4, 2}));
  EXPECT_EQ(stats.closed_max_size, 1u);
  EXPECT_EQ(stats.closed_drain, 1u);

  // The gate is closed for good.
  StatusOr<ResultFuture> late = scheduler.Submit(MakeObjective("late"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(scheduler.stats().rejected, 2u);  // The probe and this one.
}

TEST(SchedulerTest, StopRacingSubmitNeverAbandonsAdmittedFutures) {
  // Regression: the scheduler loop used to read stop_ only after its
  // queue drain, so a Submit pushing in the window between the two could
  // be left in the queue when the loop exited — destroying the request
  // with its promise unfulfilled (future.get() then throws
  // broken_promise). Hammer the Stop/Submit race; every admitted future
  // must resolve.
  for (int round = 0; round < 50; ++round) {
    Scheduler scheduler(FastConfig(), EchoHandler(nullptr));

    std::vector<ResultFuture> admitted;
    std::thread producer([&scheduler, &admitted] {
      for (int i = 0;; ++i) {
        StatusOr<ResultFuture> submitted =
            scheduler.Submit(MakeObjective("r" + std::to_string(i)));
        if (!submitted.ok()) {
          if (submitted.status().code() ==
              StatusCode::kResourceExhausted) {
            continue;  // Shed under load; keep hammering.
          }
          EXPECT_EQ(submitted.status().code(),
                    StatusCode::kFailedPrecondition)
              << submitted.status();
          return;
        }
        admitted.push_back(std::move(submitted).value());
      }
    });
    // Stop while the producer is mid-stream, at a varying offset so the
    // race window is sampled at different queue states.
    std::this_thread::sleep_for(
        std::chrono::microseconds(50 * (round % 5)));
    scheduler.Stop();
    producer.join();

    for (ResultFuture& future : admitted) {
      StatusOr<Completion> completion = future.get();  // Must not throw.
      EXPECT_TRUE(completion.ok()) << completion.status();
    }
    EXPECT_EQ(scheduler.stats().completed, admitted.size());
  }
}

TEST(SchedulerTest, StopIsIdempotentAndDestructorIsClean) {
  Scheduler scheduler(FastConfig(), EchoHandler(nullptr));
  EXPECT_TRUE(scheduler.Submit(MakeObjective("x")).value().get().ok());
  scheduler.Stop();
  scheduler.Stop();
  // Destructor calls Stop() again.
}

TEST(SchedulerTest, HandlerExceptionFailsTheBatchNotTheService) {
  core::ServeConfig config = FastConfig();
  config.max_batch_size = 1;
  std::atomic<int> calls{0};
  Scheduler scheduler(
      config, [&calls](const std::vector<const data::Objective*>& batch)
                  -> std::vector<data::DetailRecord> {
        if (calls.fetch_add(1) == 0) throw std::runtime_error("boom");
        std::vector<data::DetailRecord> records(batch.size());
        return records;
      });

  StatusOr<Completion> failed =
      scheduler.Submit(MakeObjective("a")).value().get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);

  // The scheduler thread survived and serves the next request.
  EXPECT_TRUE(scheduler.Submit(MakeObjective("b")).value().get().ok());
  ServeStats stats = scheduler.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(SchedulerTest, FailedBatchesDoNotFeedTheServiceTimeEma) {
  // A fast-failing handler must not drag the service-time estimate toward
  // zero — that would disable delay-based shedding exactly while the
  // service is erroring. With no successful batch the estimate stays
  // unset; a later success seeds it.
  core::ServeConfig config = FastConfig();
  config.max_batch_size = 1;
  std::atomic<int> calls{0};
  Scheduler scheduler(
      config, [&calls](const std::vector<const data::Objective*>& batch)
                  -> std::vector<data::DetailRecord> {
        if (calls.fetch_add(1) < 3) throw std::runtime_error("outage");
        // Measurable service time so the EMA seed is strictly positive.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::vector<data::DetailRecord>(batch.size());
      });

  for (int i = 0; i < 3; ++i) {
    StatusOr<Completion> failed =
        scheduler.Submit(MakeObjective("f" + std::to_string(i)))
            .value()
            .get();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(scheduler.admission().EstimatedServiceSeconds(), 0.0);
  }

  EXPECT_TRUE(scheduler.Submit(MakeObjective("ok")).value().get().ok());
  EXPECT_GT(scheduler.admission().EstimatedServiceSeconds(), 0.0);
}

TEST(SchedulerTest, ConcurrentProducersAreRaceFree) {
  core::ServeConfig config = FastConfig();
  config.max_batch_size = 8;
  Scheduler scheduler(config, EchoHandler(nullptr));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Priority priority =
            (i % 3 == 0) ? Priority::kBulk : Priority::kInteractive;
        StatusOr<ResultFuture> submitted = scheduler.Submit(
            MakeObjective(std::string("t").append(std::to_string(t)) +
                          "-" + std::to_string(i)),
            priority);
        if (!submitted.ok()) {
          shed_count.fetch_add(1);
          continue;
        }
        if (submitted.value().get().ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  scheduler.Stop();

  ServeStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(ok_count.load()));
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(shed_count.load()));
  EXPECT_EQ(stats.completed, stats.admitted);
}

// ---------------------------------------------------------------------------
// Workload

TEST(WorkloadTest, ExpandTemplateReplacesKnownNamesOnly) {
  Rng rng(7);
  std::map<std::string, std::vector<std::string>> pools{{"a", {"x"}}};
  EXPECT_EQ(ExpandTemplate("{a}-{b}-{a}", pools, rng), "x-{b}-x");
  EXPECT_EQ(ExpandTemplate("tail {unclosed", pools, rng),
            "tail {unclosed");
  EXPECT_EQ(ExpandTemplate("plain", pools, rng), "plain");
}

TEST(WorkloadTest, GenerateTraceIsDeterministicAndOrdered) {
  TrafficConfig config;
  config.rate_qps = 300.0;
  config.duration_s = 1.0;
  config.seed = 11;
  std::vector<TimedRequest> a = GenerateTrace(config);
  std::vector<TimedRequest> b = GenerateTrace(config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 100u);

  double previous = -1.0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objective.text, b[i].objective.text);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_GT(a[i].arrival_s, previous);
    EXPECT_FALSE(a[i].objective.text.empty());
    previous = a[i].arrival_s;
  }
}

TEST(WorkloadTest, BurstEpisodesRaiseArrivalDensity) {
  TrafficConfig config;
  config.rate_qps = 200.0;
  config.duration_s = 4.0;
  config.seed = 5;
  config.burst_period_s = 1.0;
  config.burst_duration_s = 0.25;
  config.burst_multiplier = 8.0;
  std::vector<TimedRequest> trace = GenerateTrace(config);

  size_t in_burst = 0;
  for (const TimedRequest& request : trace) {
    double phase = std::fmod(request.arrival_s, config.burst_period_s);
    if (phase < config.burst_duration_s) ++in_burst;
  }
  size_t outside = trace.size() - in_burst;
  // Burst windows cover 1/4 of the time at 8x rate: they should hold well
  // over twice the arrivals of the remaining 3/4.
  double burst_rate = static_cast<double>(in_burst) / 1.0;
  double base_rate = static_cast<double>(outside) / 3.0;
  EXPECT_GT(burst_rate, 2.0 * base_rate);
}

TEST(WorkloadTest, SizeMixFollowsConfiguredWeights) {
  TrafficConfig config;
  config.rate_qps = 500.0;
  config.duration_s = 2.0;
  config.short_weight = 1.0;
  config.medium_weight = 0.0;
  config.long_weight = 0.0;
  for (const TimedRequest& request : GenerateTrace(config)) {
    EXPECT_EQ(request.size_class, SizeClass::kShort);
  }

  config.short_weight = 0.0;
  config.long_weight = 1.0;
  std::vector<TimedRequest> long_trace = GenerateTrace(config);
  for (const TimedRequest& request : long_trace) {
    EXPECT_EQ(request.size_class, SizeClass::kLong);
    // Long texts carry boilerplate around the objective clause.
    EXPECT_GT(request.objective.text.size(), 80u);
  }
}

TEST(WorkloadTest, LatencyPercentileUsesSortedRanks) {
  ReplayResult result;
  result.latencies_s = {0.001, 0.002, 0.003, 0.004, 0.100};
  EXPECT_DOUBLE_EQ(result.LatencyPercentile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(result.LatencyPercentile(0.5), 0.003);
  EXPECT_DOUBLE_EQ(result.LatencyPercentile(0.99), 0.100);
  EXPECT_DOUBLE_EQ(result.LatencyPercentile(1.0), 0.100);
  EXPECT_DOUBLE_EQ(ReplayResult().LatencyPercentile(0.5), 0.0);
}

TEST(WorkloadTest, ReplayTraceDrivesSchedulerOpenLoop) {
  core::ServeConfig config = FastConfig();
  Scheduler scheduler(config, EchoHandler(nullptr));

  TrafficConfig traffic;
  traffic.rate_qps = 400.0;
  traffic.duration_s = 0.25;
  std::vector<TimedRequest> trace = GenerateTrace(traffic);
  ReplayResult result = ReplayTrace(scheduler, trace);
  scheduler.Stop();

  EXPECT_EQ(result.submitted, trace.size());
  EXPECT_EQ(result.admitted + result.shed, result.submitted);
  EXPECT_EQ(result.latencies_s.size(), result.admitted - result.failed);
  EXPECT_EQ(result.interactive_latencies_s.size() +
                result.bulk_latencies_s.size(),
            result.latencies_s.size());
  EXPECT_GT(result.completed_qps, 0.0);
  EXPECT_GE(result.LatencyPercentile(0.99),
            result.LatencyPercentile(0.5));
}

// ---------------------------------------------------------------------------
// End-to-end: ExtractionService vs direct extraction

TEST(ExtractionServiceTest, ServedRecordsMatchDirectExtraction) {
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 300;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);

  core::ExtractorConfig extractor_config;
  extractor_config.kinds = data::SustainabilityGoalKinds();
  extractor_config.bpe_merges = 1200;
  extractor_config.epochs = 4;
  core::DetailExtractor extractor(extractor_config);
  ASSERT_TRUE(extractor.Train(corpus).ok());

  core::ServeConfig serve_config;
  serve_config.max_batch_size = 4;
  serve_config.num_threads = 2;
  ExtractionService service(&extractor, serve_config);

  std::vector<ResultFuture> futures;
  for (size_t i = 0; i < 12; ++i) {
    Priority priority =
        (i % 2 == 0) ? Priority::kInteractive : Priority::kBulk;
    StatusOr<ResultFuture> submitted =
        service.Submit(corpus[i], priority);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(submitted).value());
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    StatusOr<Completion> completion = futures[i].get();
    ASSERT_TRUE(completion.ok()) << completion.status();
    data::DetailRecord direct = extractor.Extract(corpus[i]);
    EXPECT_EQ(completion->record.objective_id, direct.objective_id);
    EXPECT_EQ(completion->record.fields, direct.fields) << corpus[i].text;
  }
  service.Stop();
  ServeStats stats = service.stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace goalex::serve
