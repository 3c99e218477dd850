// Serving benchmark: drives the continuous-batching extraction service
// with open-loop Poisson traffic and reports sustained QPS at a fixed p99
// target. Three phases:
//
//   1. steady  — offered load well under capacity: the handler is often
//                free, so most batches leave below max size as soon as
//                a request is ready; nothing is shed, p99 stays inside SLO.
//   2. overload — offered load past capacity with burst episodes: batches
//                close full (max-size trigger), admission sheds the
//                excess with RESOURCE_EXHAUSTED, and the p99 of ADMITTED
//                requests stays bounded — the whole point of load-shedding.
//   3. ramp    — increasing offered rates; the highest rate whose
//                measured p99 still meets the target is the sustained QPS.
//
// `--smoke` shrinks durations for CI. GOALEX_THREADS sets the inference
// fan-out; GOALEX_METRICS=summary prints the serve.* histograms
// (p50/p95/p99), QPS gauge, and shed counters at the end.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/check.h"
#include "data/generator.h"
#include "eval/table.h"
#include "eval/timer.h"
#include "runtime/thread_pool.h"
#include "serve/service.h"
#include "serve/workload.h"

namespace goalex::bench {
namespace {

int ServeThreads() {
  const char* env = std::getenv("GOALEX_THREADS");
  if (env != nullptr) {
    int threads = std::atoi(env);
    if (threads > 0) return threads;
  }
  return runtime::ThreadPool::DefaultThreadCount();
}

std::string Fmt(double v, int precision) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return std::string(buffer);
}

struct PhaseReport {
  std::string name;
  serve::ReplayResult replay;
  serve::ServeStats stats;
};

void AddPhaseRow(eval::TextTable& table, const PhaseReport& report,
                 double slo_p99_ms) {
  const serve::ReplayResult& r = report.replay;
  const double interactive_p99_ms =
      r.InteractiveLatencyPercentile(0.99) * 1000.0;
  table.AddRow({report.name, Fmt(r.offered_qps, 0),
                Fmt(r.completed_qps, 0),
                std::to_string(report.stats.shed),
                Fmt(r.LatencyPercentile(0.50) * 1000.0, 1),
                Fmt(interactive_p99_ms, 1),
                Fmt(serve::SortedPercentile(r.bulk_latencies_s, 0.99) *
                        1000.0,
                    1),
                interactive_p99_ms <= slo_p99_ms ? "yes" : "NO"});
}

PhaseReport RunPhase(const std::string& name,
                     const core::DetailExtractor& extractor,
                     const core::ServeConfig& serve_config,
                     const serve::TrafficConfig& traffic) {
  serve::ExtractionService service(&extractor, serve_config);
  std::vector<serve::TimedRequest> trace = serve::GenerateTrace(traffic);
  PhaseReport report;
  report.name = name;
  report.replay = serve::ReplayTrace(service.scheduler(), trace);
  service.Stop();
  report.stats = service.stats();
  std::printf(
      "%-9s offered %5.0f qps -> completed %5.0f qps, shed %llu, "
      "p50 %.1f ms, interactive p99 %.1f ms, bulk p99 %.1f ms; "
      "batch closes: %llu max-size, %llu partial, %llu drain\n",
      name.c_str(), report.replay.offered_qps, report.replay.completed_qps,
      static_cast<unsigned long long>(report.stats.shed),
      report.replay.LatencyPercentile(0.50) * 1000.0,
      report.replay.InteractiveLatencyPercentile(0.99) * 1000.0,
      serve::SortedPercentile(report.replay.bulk_latencies_s, 0.99) *
          1000.0,
      static_cast<unsigned long long>(report.stats.closed_max_size),
      static_cast<unsigned long long>(report.stats.closed_deadline),
      static_cast<unsigned long long>(report.stats.closed_drain));
  return report;
}

int Run(bool smoke) {
  const int threads = ServeThreads();
  std::printf("Serving benchmark: continuous-batching extraction service\n");
  std::printf("inference threads: %d%s\n\n", threads,
              smoke ? " (smoke mode)" : "");

  // Train a small extractor once; the benchmark measures serving.
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = smoke ? 300 : 400;
  std::vector<data::Objective> train =
      data::GenerateSustainabilityGoals(corpus_config);
  core::ExtractorConfig config =
      DefaultExtractorConfig(Corpus::kSustainabilityGoals);
  config.epochs = smoke ? 3 : 4;
  core::DetailExtractor extractor(config);
  eval::Timer train_timer;
  GOALEX_CHECK_OK(extractor.Train(train));
  std::printf("trained extractor in %.1f s\n", train_timer.Seconds());

  // Rough single-request service time, only to size the capacity probe.
  data::SustainabilityGoalsConfig calib_config;
  calib_config.objective_count = 64;
  calib_config.seed += 4242;
  std::vector<data::Objective> calibration =
      data::GenerateSustainabilityGoals(calib_config);
  eval::Timer calib_timer;
  for (const data::Objective& objective : calibration) {
    extractor.Extract(objective);
  }
  const double direct_ms =
      calib_timer.Seconds() * 1000.0 / calibration.size();

  // Measure real end-to-end capacity THROUGH the service: the scheduler
  // thread, the replay producer, and inference all share the machine, so
  // the direct-extract number is a large overestimate (especially on one
  // core). Saturate a service with a permissive SLO and take its drain
  // rate as capacity.
  core::ServeConfig probe_config;
  probe_config.num_threads = threads;
  probe_config.max_batch_size = 8;
  probe_config.max_queue_depth = 64;
  probe_config.slo_p99_ms = 1000.0;  // Depth-bound-only admission.
  serve::TrafficConfig probe_traffic;
  probe_traffic.rate_qps = 3.0 * threads * 1000.0 / direct_ms;
  probe_traffic.duration_s = smoke ? 0.3 : 0.6;
  probe_traffic.seed = 20;
  serve::ReplayResult probe;
  {
    serve::ExtractionService probe_service(&extractor, probe_config);
    probe = serve::ReplayTrace(probe_service.scheduler(),
                               serve::GenerateTrace(probe_traffic));
  }
  const double capacity_qps = probe.completed_qps;
  GOALEX_CHECK_MSG(capacity_qps > 0.0, "capacity probe completed nothing");
  const double effective_ms = threads * 1000.0 / capacity_qps;
  std::printf("calibration: %.2f ms/request direct, %.2f ms effective -> "
              "~%.0f qps capacity\n\n",
              direct_ms, effective_ms, capacity_qps);

  core::ServeConfig serve_config;
  serve_config.num_threads = threads;
  serve_config.max_batch_size = 8;
  serve_config.max_queue_depth = 64;
  // SLO: three full batches of effective service time, floored high
  // enough to absorb scheduler jitter on small boxes.
  serve_config.slo_p99_ms = std::max(30.0, 24.0 * effective_ms);
  // Admit only up to 30% of the SLO: the rest is headroom for the
  // admitted request's own batch service time and scheduling jitter,
  // which the queueing-delay estimate deliberately excludes.
  serve_config.max_queue_delay_ms = 0.3 * serve_config.slo_p99_ms;
  GOALEX_CHECK_OK(serve_config.Validate());
  std::printf("serve config: batch<=%d, SLO p99 %.1f ms, "
              "admit delay<=%.1f ms, queue<=%d\n\n",
              serve_config.max_batch_size, serve_config.slo_p99_ms,
              serve_config.max_queue_delay_ms,
              serve_config.max_queue_depth);

  const double duration_s = smoke ? 0.5 : 2.0;
  std::vector<PhaseReport> reports;

  serve::TrafficConfig steady;
  steady.rate_qps = 0.35 * capacity_qps;
  steady.duration_s = duration_s;
  steady.seed = 21;
  reports.push_back(
      RunPhase("steady", extractor, serve_config, steady));

  serve::TrafficConfig overload;
  overload.rate_qps = 3.0 * capacity_qps;
  overload.duration_s = duration_s;
  overload.seed = 22;
  overload.burst_period_s = duration_s / 2.0;
  overload.burst_duration_s = duration_s / 8.0;
  overload.burst_multiplier = 2.0;
  reports.push_back(
      RunPhase("overload", extractor, serve_config, overload));

  // Ramp: sustained QPS = highest offered rate whose p99 meets the SLO.
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.4} : std::vector<double>{0.4, 0.7, 1.0};
  double sustained_qps = 0.0;
  for (double fraction : fractions) {
    serve::TrafficConfig ramp;
    ramp.rate_qps = fraction * capacity_qps;
    ramp.duration_s = duration_s;
    ramp.seed = 23;
    PhaseReport report = RunPhase("ramp", extractor, serve_config, ramp);
    if (report.replay.InteractiveLatencyPercentile(0.99) * 1000.0 <=
            serve_config.slo_p99_ms &&
        report.replay.completed_qps > sustained_qps) {
      sustained_qps = report.replay.completed_qps;
    }
    reports.push_back(std::move(report));
  }

  std::printf("\n");
  eval::TextTable table({"Phase", "Offered qps", "Completed qps", "Shed",
                         "p50 ms", "int p99 ms", "bulk p99 ms",
                         "SLO met"});
  for (const PhaseReport& report : reports) {
    AddPhaseRow(table, report, serve_config.slo_p99_ms);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("sustained QPS at p99 <= %.1f ms: %.0f\n\n",
              serve_config.slo_p99_ms, sustained_qps);

  // Sanity checks the CI smoke run relies on: some batch filled up, the
  // steady phase dispatched partial batches on a free handler instead of
  // waiting for company, overload shed traffic, and admitted requests met
  // the SLO under overload.
  uint64_t total_max_size = 0;
  for (const PhaseReport& report : reports) {
    total_max_size += report.stats.closed_max_size;
  }
  GOALEX_CHECK_MSG(total_max_size > 0,
                   "no batch ever closed on the max-size trigger");
  GOALEX_CHECK_MSG(reports[0].stats.closed_deadline > 0,
                   "the steady phase never dispatched a below-size batch");
  GOALEX_CHECK_MSG(reports[1].stats.shed > 0,
                   "overload phase shed nothing");
  GOALEX_CHECK_MSG(
      reports[1].replay.InteractiveLatencyPercentile(0.99) * 1000.0 <=
          serve_config.slo_p99_ms,
      "admitted interactive p99 blew the SLO under overload — admission "
      "control is not protecting latency");

  EmitMetricsSnapshot("serving");
  return 0;
}

}  // namespace
}  // namespace goalex::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return goalex::bench::Run(smoke);
}
