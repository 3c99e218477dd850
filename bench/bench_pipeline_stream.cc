// Streaming-ingest benchmark: sustained docs/sec from a timestamped
// report feed through the full corpus-to-dashboard path — detection,
// heuristic detail extraction, SDG labeling, versioned upsert — on the
// exec-graph pipeline (per-document work fans out across workers, applies
// land in feed order).
//
// Three phases over the same generated multi-year feed:
//
//   1. serial   — pipeline with parallel=false; the baseline.
//   2. parallel — exec-graph path; the headline docs/sec number. The
//                 resulting dashboard export must be byte-identical to
//                 the serial one.
//   3. replay   — the identical feed again into the parallel database;
//                 every upsert must land unchanged (dedup correctness)
//                 and the export must not move a byte.
//
// `--smoke` shrinks the feed for CI and enforces a docs/sec floor plus
// the dedup CHECKs. GOALEX_THREADS sets the worker fan-out;
// GOALEX_METRICS=summary prints the pipeline.* drift gauges at the end.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/check.h"
#include "core/database.h"
#include "data/stream.h"
#include "eval/table.h"
#include "eval/timer.h"
#include "pipeline/stream_pipeline.h"
#include "runtime/thread_pool.h"

namespace goalex::bench {
namespace {

int PipelineThreads() {
  const char* env = std::getenv("GOALEX_THREADS");
  if (env != nullptr) {
    int threads = std::atoi(env);
    if (threads > 0) return threads;
  }
  return runtime::ThreadPool::DefaultThreadCount();
}

core::DbOptions StreamDbOptions() {
  core::DbOptions options;
  options.track_upserts = true;
  options.background_seal = false;
  return options;
}

std::string Fmt(double v, int precision) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return std::string(buffer);
}

struct PhaseReport {
  std::string name;
  pipeline::StreamStats stats;
  double seconds = 0.0;

  double DocsPerSec() const {
    return seconds > 0.0 ? static_cast<double>(stats.documents) / seconds
                         : 0.0;
  }
};

PhaseReport RunPhase(const std::string& name, core::ObjectiveDatabase* db,
                     const std::vector<data::TimedDocument>& documents,
                     bool parallel, int workers) {
  pipeline::StreamPipelineOptions options;
  options.parallel = parallel;
  options.workers = workers;
  // Run real detection, once per distinct block text of the feed (the
  // feed's labels are ground truth, not something a deployed ingest gets
  // to see).
  options.trust_feed_labels = false;
  pipeline::StreamPipeline pipe(db, pipeline::HeuristicStages(), options);
  PhaseReport report;
  report.name = name;
  eval::Timer timer;
  report.stats = pipe.Process(documents);
  report.seconds = timer.Seconds();
  std::printf(
      "%-8s %5lld docs %6lld blocks (%lld detections) -> %5lld objectives "
      "(%lld ins, %lld upd, %lld unch, %lld abandoned) in %.3f s "
      "= %.0f docs/s; unmatched %.1f%%, unknown-kind %.1f%%\n",
      name.c_str(), static_cast<long long>(report.stats.documents),
      static_cast<long long>(report.stats.blocks),
      static_cast<long long>(report.stats.detections),
      static_cast<long long>(report.stats.objectives),
      static_cast<long long>(report.stats.inserted),
      static_cast<long long>(report.stats.updated),
      static_cast<long long>(report.stats.unchanged),
      static_cast<long long>(report.stats.abandoned), report.seconds,
      report.DocsPerSec(), 100.0 * report.stats.unmatched_rate(),
      100.0 * report.stats.unknown_kind_rate());
  return report;
}

int Run(bool smoke) {
  const int workers = PipelineThreads();
  std::printf("Streaming ingest benchmark: feed -> dashboard upserts\n");
  std::printf("workers: %d%s\n\n", workers, smoke ? " (smoke mode)" : "");

  data::ReportStreamConfig config;
  config.initial_companies = smoke ? 6 : 12;
  config.years = smoke ? 4 : 8;
  config.initial_targets_per_company = smoke ? 5 : 8;
  config.noise_blocks_per_report = smoke ? 6 : 12;
  config.seed = 20260808;
  data::StreamTruth truth;
  std::vector<data::TimedDocument> documents =
      data::GenerateReportStream(config, &truth);
  std::printf("feed: %d documents, %zu unique targets, %d restatements, "
              "%d abandonments\n\n",
              truth.total_documents, truth.unique_targets(),
              truth.restatements, truth.abandonments);

  const std::vector<std::string> export_kinds = {
      "Action", "Amount", "Qualifier", "Deadline",
      core::kVersionField, pipeline::kStatusField, pipeline::kSdgField};

  core::ObjectiveDatabase serial_db(8, StreamDbOptions());
  PhaseReport serial =
      RunPhase("serial", &serial_db, documents, /*parallel=*/false, workers);

  core::ObjectiveDatabase parallel_db(8, StreamDbOptions());
  PhaseReport parallel = RunPhase("parallel", &parallel_db, documents,
                                  /*parallel=*/true, workers);

  const std::string serial_csv = serial_db.ExportCsv(export_kinds);
  const std::string parallel_csv = parallel_db.ExportCsv(export_kinds);
  GOALEX_CHECK_MSG(serial_csv == parallel_csv,
                   "serial and parallel ingest produced different exports");

  PhaseReport replay = RunPhase("replay", &parallel_db, documents,
                                /*parallel=*/true, workers);
  GOALEX_CHECK_MSG(replay.stats.inserted == 0 && replay.stats.updated == 0,
                   "feed replay was not idempotent: "
                       << replay.stats.inserted << " inserts, "
                       << replay.stats.updated << " updates");
  GOALEX_CHECK_MSG(parallel_db.ExportCsv(export_kinds) == parallel_csv,
                   "feed replay moved the dashboard export");
  // Real detection may pass noise blocks (false positives add rows), but
  // every true target must land exactly once.
  GOALEX_CHECK_MSG(
      parallel_db.live_size() >= truth.unique_targets(),
      "live rows " << parallel_db.live_size() << " < unique targets "
                   << truth.unique_targets());
  std::printf("live rows: %zu (%zu true targets + %zu detected-noise "
              "extras)\n",
              parallel_db.live_size(), truth.unique_targets(),
              parallel_db.live_size() - truth.unique_targets());

  std::printf("\n");
  eval::TextTable table({"Phase", "Docs", "Blocks", "Detections",
                         "Objectives", "Docs/s", "Unmatched %",
                         "Unknown-kind %"});
  for (const PhaseReport* report : {&serial, &parallel, &replay}) {
    table.AddRow({report->name, std::to_string(report->stats.documents),
                  std::to_string(report->stats.blocks),
                  std::to_string(report->stats.detections),
                  std::to_string(report->stats.objectives),
                  Fmt(report->DocsPerSec(), 0),
                  Fmt(100.0 * report->stats.unmatched_rate(), 1),
                  Fmt(100.0 * report->stats.unknown_kind_rate(), 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("sustained ingest (exec-graph path): %.0f docs/s over %lld "
              "documents\n\n",
              parallel.DocsPerSec(),
              static_cast<long long>(parallel.stats.documents));

  if (smoke) {
    // Floor sized for a loaded single-core CI box; a healthy build does
    // thousands of docs/sec.
    GOALEX_CHECK_MSG(parallel.DocsPerSec() >= 25.0,
                     "smoke ingest too slow: " << parallel.DocsPerSec()
                                               << " docs/s");
  }

  EmitMetricsSnapshot("pipeline");
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
