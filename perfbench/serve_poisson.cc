// serve_poisson: the served request -> record path under open-loop load.
//
// Arrivals are Poisson at a fixed base rate with periodic bursts, so the
// offered load never moves with the code under test. Each request is
// timed from when it was due: (actual submit - due) + the scheduler's own
// enqueue-to-completion latency, so a stalled generator cannot hide
// queueing. A request the service sheds is sent again after a backoff,
// as a client would; it counts as a miss of the latency limit, and only a
// request that is still refused after the last retry, or whose batch
// fails, counts as failed. The service runs on its default configuration,
// so the generator and the scheduler thread are the only busy threads.
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <thread>

#include "common/check.h"
#include "runtime/thread_pool.h"
#include "serve/scheduler.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = goalex::serve;

constexpr int kSetupRepetitions = 3;
// Offered load, fixed (recorded in BENCHMARK.json's workload note). With
// the default ServeConfig (inference on the scheduler thread) the batch
// handler is busy ~27% of the time at this base rate on a 4-core host and
// most batches close on the 5 ms deadline; each x3 burst (3300 req/s)
// fills batches towards the size limit. With the handler on 2 pool
// workers instead, every batch is handed to a sleeping worker, and the
// latency tail followed the host's CPU steal (IQR/median of the
// interactive tail across ten seeds 0.22 and 0.39 in two sets) while
// admission control shed 0.3-0.4% of submits.
constexpr double kBaseRateQps = 1100.0;
constexpr double kBurstMultiplier = 3.0;
constexpr double kBurstPeriodS = 1.0;
constexpr double kBurstDurationS = 0.1;
// A request slower than this misses; so does one that was shed at least
// once or never served.
constexpr double kLatencyLimitS = 0.050;
// A shed request is retried after 10, 20, 40, ... ms; after kMaxAttempts
// refusals it fails.
constexpr double kRetryBackoffS = 0.010;
constexpr int kMaxAttempts = 6;
constexpr double kWarmupS = 0.5;
// Every kCheckStride-th admitted request is re-extracted directly.
constexpr size_t kCheckStride = 61;

/// The serving workload's own trace generator at the fixed offered load,
/// with its default 70/30 interactive/bulk and short/medium/long mix.
std::vector<serve::TimedRequest> MakeSchedule(uint64_t seed,
                                              double duration_s) {
  serve::TrafficConfig traffic;
  traffic.rate_qps = kBaseRateQps;
  traffic.duration_s = duration_s;
  traffic.seed = MixSeed(seed, 1000);
  traffic.burst_period_s = kBurstPeriodS;
  traffic.burst_duration_s = kBurstDurationS;
  traffic.burst_multiplier = kBurstMultiplier;
  return serve::GenerateTrace(traffic);
}

/// The service's defaults throughout: batching policy (16 requests /
/// 5 ms), admission control (queue depth 1024, delay bound from the 50 ms
/// SLO) and inference on the scheduler thread, so the generator and the
/// scheduler are the only busy threads.
goalex::core::ServeConfig MakeServeConfig() {
  goalex::core::ServeConfig config;
  config.slo_p99_ms = kLatencyLimitS * 1e3;
  GOALEX_CHECK_OK(config.Validate());
  return config;
}

struct PhaseOutcome {
  /// Due-time latencies by priority, in due-time order.
  std::vector<double> interactive_s;
  std::vector<double> bulk_s;
  std::vector<double> late_s;
  uint64_t submitted = 0;  ///< Requests (first attempts).
  uint64_t attempts = 0;   ///< Submits, retries included.
  uint64_t shed = 0;       ///< Submits refused by admission control.
  uint64_t failed = 0;     ///< Requests never served.
  uint64_t within_limit = 0;
  double window_s = 0.0;  ///< First timed arrival to last completion.
  serve::ServeStats stats_before;
  serve::ServeStats stats_after;
  goalex::obs::RegistrySnapshot registry_before;
  goalex::obs::RegistrySnapshot registry_after;
  std::vector<SpanRecord> spans;
};

/// Replays the schedule's warm-up prefix and then `window_s` of arrivals
/// against a fresh service. With `traced`, the service is the same
/// Scheduler + ExtractBatch handler ExtractionService builds, with a span
/// around each handler call.
PhaseOutcome RunPhase(const goalex::core::DetailExtractor& extractor,
                      const goalex::core::ServeConfig& config,
                      const std::vector<serve::TimedRequest>& schedule,
                      double window_s, bool traced, RunResult& result) {
  using Clock = std::chrono::steady_clock;
  std::unique_ptr<serve::ExtractionService> service;
  // Declared before `scheduler`, so the scheduler drains first.
  std::unique_ptr<goalex::runtime::ThreadPool> pool;
  std::unique_ptr<serve::Scheduler> scheduler;
  if (traced) {
    pool = std::make_unique<goalex::runtime::ThreadPool>(config.num_threads);
    scheduler = std::make_unique<serve::Scheduler>(
        config,
        [&extractor, &pool](
            const std::vector<const goalex::data::Objective*>& batch) {
          ScopedSpan span("serve.handler");
          return extractor.ExtractBatch(batch, pool.get());
        });
  } else {
    service = std::make_unique<serve::ExtractionService>(&extractor, config);
  }
  serve::Scheduler& target = traced ? *scheduler : service->scheduler();

  struct Sent {
    size_t index = 0;
    double due_s = 0.0;     ///< Offsets from `start`.
    double submit_s = 0.0;
    bool timed = false;
    bool was_shed = false;
    serve::ResultFuture future;
  };
  // A shed request is sent again after a backoff, as a client would on
  // kResourceExhausted; it stays timed from its original due time.
  struct Retry {
    double send_s = 0.0;
    size_t index = 0;
    int attempt = 0;
    bool operator>(const Retry& other) const { return send_s > other.send_s; }
  };
  std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>> retries;
  std::vector<Sent> sent;
  sent.reserve(schedule.size());
  PhaseOutcome outcome;
  // Grows to the last timed completion below.
  outcome.window_s = window_s;
  const double end_s = kWarmupS + window_s;
  bool window_open = false;
  const Clock::time_point start = Clock::now();
  size_t next = 0;
  for (;;) {
    const bool fresh = next < schedule.size() &&
                       schedule[next].arrival_s < end_s &&
                       (retries.empty() ||
                        schedule[next].arrival_s <= retries.top().send_s);
    if (!fresh && retries.empty()) break;
    Retry send{0.0, next, 0};
    if (fresh) {
      send.send_s = schedule[next++].arrival_s;
    } else {
      send = retries.top();
      retries.pop();
    }
    const serve::TimedRequest& arrival = schedule[send.index];
    const bool timed = arrival.arrival_s >= kWarmupS;
    if (timed && !window_open) {
      window_open = true;
      outcome.stats_before = target.stats();
      outcome.registry_before =
          goalex::obs::MetricsRegistry::Default().Snapshot();
      Tracer::Get().SetEnabled(traced);
    }
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(send.send_s));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const double submit_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    goalex::StatusOr<serve::ResultFuture> submitted =
        target.Submit(arrival.objective, arrival.priority);
    if (timed) {
      ++outcome.attempts;
      if (send.attempt == 0) {
        ++outcome.submitted;
        outcome.late_s.push_back(submit_s - arrival.arrival_s);
      }
    }
    if (!submitted.ok()) {
      if (timed) ++outcome.shed;
      if (send.attempt + 1 < kMaxAttempts) {
        retries.push(Retry{submit_s + kRetryBackoffS * (1 << send.attempt),
                           send.index, send.attempt + 1});
      } else if (timed) {
        ++outcome.failed;
      }
      continue;
    }
    sent.push_back(Sent{send.index, arrival.arrival_s, submit_s, timed,
                        send.attempt > 0, std::move(submitted).value()});
  }

  std::vector<std::pair<size_t, goalex::data::DetailRecord>> samples;
  for (Sent& request : sent) {
    goalex::StatusOr<serve::Completion> completion = request.future.get();
    if (!request.timed) continue;
    if (!completion.ok()) {
      ++outcome.failed;
      continue;
    }
    const double latency_s =
        DueTimeLatency(request.due_s, request.submit_s,
                       completion->latency_seconds);
    outcome.window_s =
        std::max(outcome.window_s, request.due_s + latency_s - kWarmupS);
    if (latency_s <= kLatencyLimitS && !request.was_shed) {
      ++outcome.within_limit;
    }
    (completion->priority == serve::Priority::kInteractive
         ? outcome.interactive_s
         : outcome.bulk_s)
        .push_back(latency_s);
    if (request.index % kCheckStride == 0) {
      samples.emplace_back(request.index, std::move(completion->record));
    }
  }
  Tracer::Get().SetEnabled(false);
  outcome.stats_after = target.stats();
  outcome.registry_after = goalex::obs::MetricsRegistry::Default().Snapshot();
  outcome.spans = Tracer::Get().Drain();
  target.Stop();

  // --- Correctness, outside the timed region ------------------------------
  size_t mismatched = 0;
  for (const auto& [index, record] : samples) {
    if (!SameRecord(record, extractor.Extract(schedule[index].objective))) {
      ++mismatched;
    }
  }
  result.Check(!samples.empty(), "no served record was sampled");
  result.Check(mismatched == 0,
               std::to_string(mismatched) + " of " +
                   std::to_string(samples.size()) +
                   " sampled served records differ from Extract()");
  result.Note("serve: " + std::to_string(samples.size()) +
              " sampled served records checked against Extract()");
  result.attempted += outcome.submitted;
  result.failed += outcome.failed;
  return outcome;
}

double InteractiveP50(const PhaseOutcome& outcome) {
  return Summarize(outcome.interactive_s).p50;
}

}  // namespace

RunResult RunServePoisson(const RunOptions& options) {
  RunResult result;
  std::unique_ptr<goalex::core::DetailExtractor> extractor;
  std::vector<serve::TimedRequest> schedule;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const double start = NowSeconds();
    extractor = TrainExtractor();
    schedule = MakeSchedule(options.seed, kWarmupS + options.seconds);
    setup_s.push_back(NowSeconds() - start);
  }
  const goalex::core::ServeConfig config = MakeServeConfig();
  char line[200];
  std::snprintf(line, sizeof(line),
                "serve: offered %.0f req/s, x%.0f bursts of %.0f ms every "
                "%.0f ms, %d inference workers, latency limit %.0f ms",
                kBaseRateQps, kBurstMultiplier, kBurstDurationS * 1e3,
                kBurstPeriodS * 1e3, config.num_threads,
                kLatencyLimitS * 1e3);
  result.Note(line);

  if (!options.trace) {
    PhaseOutcome phase =
        RunPhase(*extractor, config, schedule, options.seconds, false, result);
    result.Add("throughput_per_s",
               static_cast<double>(phase.within_limit) / phase.window_s,
               "1/s");
    AddLatencyMetrics(result, "interactive due-time", phase.interactive_s);
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    std::snprintf(line, sizeof(line),
                  "serve: %llu requests, %llu submits refused, "
                  "%llu failed, %llu within limit",
                  static_cast<unsigned long long>(phase.submitted),
                  static_cast<unsigned long long>(phase.shed),
                  static_cast<unsigned long long>(phase.failed),
                  static_cast<unsigned long long>(phase.within_limit));
    result.Note(line);
    return result;
  }

  // Traced run: an untraced half, then a traced half on the same arrivals.
  const double half_s = options.seconds / 2.0;
  PhaseOutcome plain =
      RunPhase(*extractor, config, schedule, half_s, false, result);
  PhaseOutcome traced =
      RunPhase(*extractor, config, schedule, half_s, true, result);
  RegistryDelta delta(traced.registry_before, traced.registry_after);
  const double batches = static_cast<double>(traced.stats_after.batches -
                                             traced.stats_before.batches);
  const double deadline_closes =
      static_cast<double>(traced.stats_after.closed_deadline -
                          traced.stats_before.closed_deadline);
  result.AddLayer("serve.batches", batches);
  result.AddLayer("serve.batch_size_mean",
                  delta.HistogramMean("serve.batch.size"));
  result.AddLayer("serve.close_deadline_share",
                  batches > 0.0 ? deadline_closes / batches : 0.0);
  result.AddLayer("serve.queue_wait_mean_ms",
                  delta.HistogramMean("serve.queue.wait.seconds") * 1e3);
  result.AddLayer("serve.handler_busy_s",
                  SpanBusySeconds(traced.spans, "serve.handler"));
  result.AddLayer("serve.shed_share",
                  static_cast<double>(traced.shed) /
                      static_cast<double>(traced.attempts));
  std::vector<double> late = traced.late_s;
  std::sort(late.begin(), late.end());
  result.AddLayer("serve.generator_late_p99_ms",
                  serve::SortedPercentile(late, 0.99) * 1e3);
  const TailSummary bulk =
      SummarizeWindows(CutWindows(traced.bulk_s, kTailWindowSamples));
  result.AddLayer("serve.bulk_tail_ms", bulk.tail * 1e3);
  std::snprintf(line, sizeof(line),
                "serve: bulk latency %zu samples, tail = median over %zu "
                "windows of p%g",
                bulk.count, bulk.windows, bulk.tail_quantile * 100.0);
  result.Note(line);
  result.AddLayer("infer.packed_chunks", delta.Counter("infer.packed.chunks"));
  result.AddLayer("infer.packed_batch_fill_mean",
                  delta.HistogramMean("infer.packed.batch_fill"));
  result.AddLayer("infer.plan_executions",
                  delta.Counter("infer.plan.executions"));
  result.AddLayer("bpe.tokenize_busy_s",
                  delta.HistogramSum("extractor.stage.tokenize.seconds"));
  result.AddLayer("infer.predict_busy_s",
                  delta.HistogramSum("extractor.stage.predict.seconds"));
  result.AddLayer("core.decode_busy_s",
                  delta.HistogramSum("extractor.stage.decode.seconds"));
  result.AddLayer("exec.nodes", delta.Counter("exec.nodes"));
  result.AddLayer("exec.steals", delta.Counter("exec.steals"));
  const double plain_p50 = InteractiveP50(plain);
  result.AddLayer("trace.overhead_share",
                  (InteractiveP50(traced) - plain_p50) / plain_p50);
  result.AddLayer("trace.spans", static_cast<double>(traced.spans.size()));
  result.Note("serve: per-layer values cover the traced half (" +
              std::to_string(half_s) +
              " s); overhead compares interactive p50 latency");
  CompletePerLayer(result);
  return result;
}

}  // namespace perfbench
