// ingest_neural: the feed-on-disk -> dashboard batch path with the paper's
// transformer models in both model stages.
//
// Set-up trains the detector and the extractor and writes a multi-year
// feed as *.goalexfeed files of kDocumentsPerFile documents each. One
// timed round replays the feed's arrival: each file is renamed into a
// watched directory, then
// DirectoryFeed::Poll -> StreamPipeline::Process (neural stages, feed
// labels not trusted), with the WAL on a group fsync interval; the round
// ends with ObjectiveDatabase::Flush sealing the store. One latency
// sample per feed file runs from the file landing to its rows being
// queryable (Poll, then Process).
// Rounds repeat on a fresh store until --seconds have been measured; the
// throughput is the median of the rounds' documents per second.
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/check.h"
#include "core/database.h"
#include "pipeline/feed.h"
#include "pipeline/stream_pipeline.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = goalex::core;
namespace pipeline = goalex::pipeline;

constexpr int kSetupRepetitions = 3;
// A group fsync every 1024 WAL records. At 64 the rounds spent 3-10% of
// their time waiting on fsync, and that share followed the shared disk
// from run to run; at 1024 it is 1-6%.
constexpr int32_t kWalFsyncInterval = 1024;
constexpr size_t kDocumentsPerFile = 20;
// The exec graph runs inline on the polling thread. With nproc-1 = 3
// workers documents/s was 2.2x higher but followed the host's CPU steal:
// a stall of any one vCPU held up the file's graph, and 13% steal cut
// documents/s by 42% (IQR/median across ten seeds 0.20 and 0.32 in two
// sets of the same code).
constexpr int kWorkers = 1;
const FeedShape kShape{/*substreams=*/16, /*years=*/10, /*noise_blocks=*/8};

/// Per-layer sums over the traced rounds.
struct LayerTotals {
  int rounds = 0;
  std::map<std::string, double> values;
  std::vector<double> documents_per_s;
  uint64_t spans = 0;

  void Add(const std::string& name, double value) { values[name] += value; }
};

struct RoundOutcome {
  size_t documents = 0;
  double seconds = 0.0;
  std::vector<double> latencies_s;
  std::string digest;
};

/// Share of true targets whose upsert key is a live row, and live rows
/// per true target.
void AddDedupQuality(const core::ObjectiveDatabase& db, const Feed& feed,
                     double* recall, double* rows_per_target) {
  std::set<std::string> live;
  std::vector<core::DbRow> rows = db.SnapshotRows();
  for (const core::DbRow& row : rows) {
    live.insert(core::ObjectiveUpsertKey(row.company, row.record));
  }
  size_t found = 0;
  for (const auto& target : feed.targets) {
    goalex::data::DetailRecord record;
    record.fields["Action"] = target.action;
    record.fields["Qualifier"] = target.qualifier;
    if (live.count(core::ObjectiveUpsertKey(target.company, record)) > 0) {
      ++found;
    }
  }
  const double targets = static_cast<double>(feed.targets.size());
  *recall = static_cast<double>(found) / targets;
  *rows_per_target = static_cast<double>(rows.size()) / targets;
}

RoundOutcome RunRound(const RunOptions& options, int round,
                      const pipeline::StreamStages& stages,
                      const std::vector<std::string>& feed_paths,
                      const Feed& feed, bool traced, bool checks,
                      RunResult& result, LayerTotals& layers) {
  namespace fs = std::filesystem;
  const std::string dir = options.work_dir + "/round-" + std::to_string(round);
  const std::string stage_dir = dir + "/stage";
  const std::string watch_dir = dir + "/watch";
  RemoveTree(dir);
  fs::create_directories(stage_dir);
  fs::create_directories(watch_dir);
  std::vector<std::string> names;
  for (const std::string& path : feed_paths) {
    names.push_back(fs::path(path).filename().string());
    fs::copy_file(path, stage_dir + "/" + names.back());
  }

  RoundOutcome outcome;
  {
    core::DbOptions db_options;
    db_options.track_upserts = true;
    db_options.wal_fsync_interval = kWalFsyncInterval;
    core::ObjectiveDatabase db(core::ObjectiveDatabase::kDefaultShards,
                               db_options);
    GOALEX_CHECK_OK(db.Open(dir + "/db"));
    pipeline::StreamPipelineOptions pipeline_options;
    pipeline_options.parallel = true;
    pipeline_options.workers = kWorkers;
    pipeline_options.trust_feed_labels = false;
    pipeline::StreamPipeline ingest(&db, stages, pipeline_options);
    pipeline::DirectoryFeed directory(watch_dir);

    Tracer& tracer = Tracer::Get();
    const goalex::obs::RegistrySnapshot before =
        goalex::obs::MetricsRegistry::Default().Snapshot();
    tracer.SetEnabled(traced);
    const double round_start = NowSeconds();
    for (const std::string& name : names) {
      const double landed = NowSeconds();
      fs::rename(stage_dir + "/" + name, watch_dir + "/" + name);
      goalex::StatusOr<std::vector<goalex::data::TimedDocument>> documents =
          [&] {
            ScopedSpan span("pipeline.feed_poll");
            return directory.Poll();
          }();
      if (!documents.ok()) {
        ++result.failed;
        result.Check(false, "poll failed: " + documents.status().ToString());
        continue;
      }
      {
        ScopedSpan span("pipeline.process");
        tracer.SetAmbientParent(span.id());
        ingest.Process(*documents);
        tracer.SetAmbientParent(0);
      }
      // Upserted rows are queryable (and WAL-logged) once Process returns.
      outcome.documents += documents->size();
      outcome.latencies_s.push_back(NowSeconds() - landed);
    }
    {
      ScopedSpan span("storage.flush");
      GOALEX_CHECK_OK(db.Flush());
    }
    outcome.seconds = NowSeconds() - round_start;
    tracer.SetEnabled(false);
    const goalex::obs::RegistrySnapshot after =
        goalex::obs::MetricsRegistry::Default().Snapshot();
    result.attempted += outcome.documents;

    if (traced) {
      std::vector<SpanRecord> spans = tracer.Drain();
      RegistryDelta delta(before, after);
      ++layers.rounds;
      layers.documents_per_s.push_back(static_cast<double>(outcome.documents) /
                                       outcome.seconds);
      layers.spans += spans.size();
      layers.Add("pipeline.feed_poll_s",
                 SpanBusySeconds(spans, "pipeline.feed_poll"));
      layers.Add("pipeline.process_s",
                 SpanBusySeconds(spans, "pipeline.process"));
      layers.Add("pipeline.process_self_s",
                 SelfSeconds(spans, "pipeline.process",
                             {"goalspotter.detect", "core.extract"}));
      layers.Add("goalspotter.detect_calls",
                 SpanCount(spans, "goalspotter.detect"));
      layers.Add("goalspotter.detect_busy_s",
                 SpanBusySeconds(spans, "goalspotter.detect"));
      layers.Add("core.extract_calls", SpanCount(spans, "core.extract"));
      layers.Add("core.extract_busy_s",
                 SpanBusySeconds(spans, "core.extract"));
      layers.Add("bpe.tokenize_busy_s",
                 delta.HistogramSum("extractor.stage.tokenize.seconds"));
      layers.Add("infer.predict_busy_s",
                 delta.HistogramSum("extractor.stage.predict.seconds"));
      layers.Add("core.decode_busy_s",
                 delta.HistogramSum("extractor.stage.decode.seconds"));
      layers.Add("infer.plan_executions",
                 delta.Counter("infer.plan.executions"));
      layers.Add("infer.packed_chunks", delta.Counter("infer.packed.chunks"));
      layers.Add("infer.packed_batch_fill_mean",
                 delta.HistogramMean("infer.packed.batch_fill"));
      layers.Add("storage.wal_appends", delta.Counter("db.wal.appends"));
      layers.Add("storage.seals", delta.Counter("db.segment.seals"));
      layers.Add("storage.flush_s", SpanBusySeconds(spans, "storage.flush"));
      const double writes =
          static_cast<double>(delta.Counter("db.upserts.inserted") +
                              delta.Counter("db.upserts.updated"));
      const double upserts =
          writes + static_cast<double>(delta.Counter("db.upserts.unchanged"));
      layers.Add("storage.upsert_write_share",
                 upserts > 0.0 ? writes / upserts : 0.0);
      layers.Add("storage.upsert_busy_s",
                 delta.HistogramSum("db.insert.seconds"));
      layers.Add("storage.sealed_segments",
                 static_cast<double>(db.SealedSegmentCount()));
      layers.Add("storage.superseded_rows",
                 static_cast<double>(db.superseded_count()));
      layers.Add("exec.nodes", delta.Counter("exec.nodes"));
      layers.Add("exec.steals", delta.Counter("exec.steals"));
    }

    // --- Correctness, outside the timed region ---------------------------
    outcome.digest = Digest(db.ExportCsv(ExportKinds()));
    if (checks) {
      goalex::StatusOr<std::vector<goalex::data::TimedDocument>> again =
          directory.Poll();
      result.Check(again.ok() && again->empty(),
                   "re-polling the feed directory returned documents");
      goalex::StatusOr<std::vector<goalex::data::TimedDocument>> last =
          pipeline::ReadFeedFile(watch_dir + "/" + names.back());
      GOALEX_CHECK_OK(last.status());
      pipeline::StreamStats replay = ingest.Process(*last);
      result.Check(replay.inserted == 0 && replay.updated == 0 &&
                       replay.unchanged == replay.objectives,
                   "replaying the last feed file changed rows");
      result.Check(Digest(db.ExportCsv(ExportKinds())) == outcome.digest,
                   "replaying the last feed file changed the export");
      double recall = 0.0, rows_per_target = 0.0;
      AddDedupQuality(db, feed, &recall, &rows_per_target);
      result.Note("ingest: " + std::to_string(feed.documents) +
                  " documents in " + std::to_string(names.size()) +
                  " feed files, " + std::to_string(feed.targets.size()) +
                  " true targets, " + std::to_string(db.live_size()) +
                  " live rows, ExportCsv digest " + outcome.digest);
      char line[96];
      std::snprintf(line, sizeof(line),
                    "ingest: target recall %.6f, rows per target %.6f",
                    recall, rows_per_target);
      result.Note(line);
      layers.values["ingest.target_recall"] = recall;
      layers.values["ingest.rows_per_target"] = rows_per_target;
    }
  }
  RemoveTree(dir);
  return outcome;
}

}  // namespace

RunResult RunIngestNeural(const RunOptions& options) {
  RunResult result;
  std::unique_ptr<goalex::core::DetailExtractor> extractor;
  std::unique_ptr<goalex::goalspotter::TransformerObjectiveDetector> detector;
  Feed feed;
  std::vector<std::string> feed_paths;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const double start = NowSeconds();
    extractor = TrainExtractor();
    detector = TrainDetector();
    feed = GenerateFeed(options.seed, kShape);
    RemoveTree(options.work_dir + "/feed");
    feed_paths = WriteFeedFiles(feed, options.work_dir + "/feed",
                                kDocumentsPerFile);
    setup_s.push_back(NowSeconds() - start);
  }
  const pipeline::StreamStages stages = NeuralStages(*detector, *extractor);

  // Untraced rounds give the end-to-end metrics. A traced run alternates
  // untraced and traced rounds so the tracing overhead is measured on the
  // same inputs in the same process.
  LayerTotals layers;
  std::vector<double> file_latencies_s;
  std::vector<double> round_rates;
  std::string digest;
  double measured = 0.0;
  for (int round = 0;; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    RoundOutcome outcome = RunRound(options, round, stages, feed_paths, feed,
                                    traced, round == 0, result, layers);
    measured += outcome.seconds;
    if (digest.empty()) digest = outcome.digest;
    result.Check(outcome.digest == digest,
                 "round " + std::to_string(round) +
                     " exported a different store than round 0");
    if (!traced) {
      round_rates.push_back(static_cast<double>(outcome.documents) /
                            outcome.seconds);
      file_latencies_s.insert(file_latencies_s.end(),
                              outcome.latencies_s.begin(),
                              outcome.latencies_s.end());
    }
    const bool enough = measured >= options.seconds &&
                        (!options.trace || layers.rounds > 0);
    if (enough) break;
  }
  const double documents_per_s = Median(round_rates);

  if (!options.trace) {
    result.Add("throughput_per_s", documents_per_s, "1/s");
    result.Note("ingest: median of " + std::to_string(round_rates.size()) +
                " rounds' documents per second");
    AddLatencyMetrics(result, "per-file feed-to-dashboard", file_latencies_s);
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }
  const double rounds = static_cast<double>(layers.rounds);
  for (const auto& [name, value] : layers.values) {
    const bool per_run = name == "ingest.target_recall" ||
                         name == "ingest.rows_per_target";
    result.AddLayer(name, per_run ? value : value / rounds);
  }
  const double traced_per_s = Median(layers.documents_per_s);
  result.AddLayer("trace.overhead_share", 1.0 - traced_per_s / documents_per_s);
  result.AddLayer("trace.spans", static_cast<double>(layers.spans) / rounds);
  result.Note("ingest: per-layer values are means per feed pass over " +
              std::to_string(layers.rounds) + " traced rounds");
  CompletePerLayer(result);
  return result;
}

}  // namespace perfbench
