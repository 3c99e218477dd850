#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/check.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/schema.h"
#include "pipeline/feed.h"

namespace perfbench {

namespace data = goalex::data;

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

void RunResult::Note(const std::string& line) { notes.push_back(line); }

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.emplace_back(name, Metric{value, unit});
}

void RunResult::AddLayer(const std::string& name, double value) {
  for (const auto& [metric, unit] : PerLayerMetrics()) {
    if (metric == name) {
      Add(name, value, unit);
      return;
    }
  }
  GOALEX_CHECK_MSG(false, "unlisted per-layer metric " << name);
}

std::unique_ptr<goalex::core::DetailExtractor> TrainExtractor() {
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 300;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  goalex::core::ExtractorConfig config;
  config.kinds = data::SustainabilityGoalKinds();
  config.epochs = 3;
  config.num_threads = 1;
  auto extractor = std::make_unique<goalex::core::DetailExtractor>(config);
  GOALEX_CHECK_OK(extractor->Train(corpus));
  return extractor;
}

std::unique_ptr<goalex::goalspotter::TransformerObjectiveDetector>
TrainDetector() {
  data::SustainabilityGoalsConfig corpus_config;
  corpus_config.objective_count = 300;
  std::vector<data::Objective> corpus =
      data::GenerateSustainabilityGoals(corpus_config);
  std::vector<goalex::goalspotter::LabeledBlock> blocks;
  goalex::Rng noise_rng(77);
  for (const data::Objective& objective : corpus) {
    blocks.push_back({objective.text, true});
    blocks.push_back({data::GenerateNoiseSentence(noise_rng), false});
  }
  auto detector =
      std::make_unique<goalex::goalspotter::TransformerObjectiveDetector>();
  detector->Train(blocks);
  return detector;
}

goalex::pipeline::StreamStages NeuralStages(
    const goalex::goalspotter::TransformerObjectiveDetector& detector,
    const goalex::core::DetailExtractor& extractor) {
  goalex::pipeline::StreamStages stages;
  stages.is_objective = [&detector](const std::string& text) {
    ScopedSpan span("goalspotter.detect");
    return detector.IsObjective(text);
  };
  stages.extract = [&extractor](const data::Objective& objective) {
    ScopedSpan span("core.extract");
    return extractor.Extract(objective);
  };
  return stages;
}

Feed GenerateFeed(uint64_t seed, const FeedShape& shape) {
  constexpr int64_t kYearMs = 31557600000LL;
  Feed feed;
  feed.files.resize(static_cast<size_t>(shape.years));
  // by_year[year][substream] -> documents, merged below in that order.
  std::vector<std::vector<std::vector<data::TimedDocument>>> by_year(
      feed.files.size(),
      std::vector<std::vector<data::TimedDocument>>(
          static_cast<size_t>(shape.substreams)));
  for (int k = 0; k < shape.substreams; ++k) {
    data::ReportStreamConfig config;
    config.years = shape.years;
    config.noise_blocks_per_report = shape.noise_blocks;
    config.seed = MixSeed(seed, static_cast<uint64_t>(k));
    data::StreamTruth truth;
    std::vector<data::TimedDocument> documents =
        data::GenerateReportStream(config, &truth);
    const std::string number = std::to_string(k + 1);
    const std::string suffix = " #" + number;
    const std::string prefix = "s" + number + "-";
    for (data::TimedDocument& document : documents) {
      const int64_t year = document.timestamp_ms / kYearMs + 1970;
      const size_t index = static_cast<size_t>(year - config.start_year);
      GOALEX_CHECK(index < by_year.size());
      document.report.company += suffix;
      document.report.document = prefix + document.report.document;
      by_year[index][static_cast<size_t>(k)].push_back(std::move(document));
    }
    for (data::StreamTargetTruth& target : truth.targets) {
      target.company += suffix;
      feed.targets.push_back(std::move(target));
    }
  }
  int64_t sequence = 0;
  for (size_t y = 0; y < by_year.size(); ++y) {
    for (auto& documents : by_year[y]) {
      for (data::TimedDocument& document : documents) {
        document.sequence = sequence++;
        feed.files[y].push_back(std::move(document));
      }
    }
  }
  feed.documents = static_cast<size_t>(sequence);
  return feed;
}

std::vector<std::string> WriteFeedFiles(const Feed& feed,
                                        const std::string& dir,
                                        size_t documents_per_file) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  std::vector<data::TimedDocument> file;
  auto write = [&] {
    char name[48];
    std::snprintf(name, sizeof(name), "feed-%03zu.goalexfeed", paths.size());
    paths.push_back(dir + "/" + name);
    GOALEX_CHECK_OK(goalex::pipeline::WriteFeedFile(paths.back(), file));
    file.clear();
  };
  for (const std::vector<data::TimedDocument>& year : feed.files) {
    for (const data::TimedDocument& document : year) {
      file.push_back(document);
      if (file.size() == documents_per_file) write();
    }
  }
  if (!file.empty()) write();
  return paths;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const std::vector<std::string>& ExportKinds() {
  static const std::vector<std::string>* const kKinds =
      new std::vector<std::string>{"Action",   "Amount",  "Qualifier",
                                   "Baseline", "Deadline", "_version",
                                   "_seq",     "_sdg",    "_status"};
  return *kKinds;
}

std::string Digest(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void RemoveTree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

bool SameRecord(const data::DetailRecord& a, const data::DetailRecord& b) {
  return a.objective_id == b.objective_id &&
         a.objective_text == b.objective_text && a.fields == b.fields;
}

void AddLatencyMetrics(RunResult& result, const std::string& what,
                       const std::vector<double>& samples_s) {
  TailSummary summary =
      SummarizeWindows(CutWindows(samples_s, kTailWindowSamples));
  result.Add("latency_p50_ms", summary.p50 * 1e3, "ms");
  result.Add("latency_tail_ms", summary.tail * 1e3, "ms");
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s latency: %zu samples, p50 %.3f ms; tail = median over "
                "%zu windows of each window's p%g = %.3f ms",
                what.c_str(), summary.count, summary.p50 * 1e3,
                summary.windows, summary.tail_quantile * 100.0,
                summary.tail * 1e3);
  result.Note(line);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* const kMetrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"pipeline.feed_poll_s", "s"},
          {"pipeline.process_s", "s"},
          {"pipeline.process_self_s", "s"},
          {"goalspotter.detect_calls", "count"},
          {"goalspotter.detect_busy_s", "s"},
          {"core.extract_calls", "count"},
          {"core.extract_busy_s", "s"},
          {"bpe.tokenize_busy_s", "s"},
          {"infer.predict_busy_s", "s"},
          {"core.decode_busy_s", "s"},
          {"infer.plan_executions", "count"},
          {"infer.packed_chunks", "count"},
          {"infer.packed_batch_fill_mean", "share"},
          {"storage.wal_appends", "count"},
          {"storage.seals", "count"},
          {"storage.flush_s", "s"},
          {"storage.upsert_write_share", "share"},
          {"storage.upsert_busy_s", "s"},
          {"storage.sealed_segments", "count"},
          {"storage.superseded_rows", "count"},
          {"exec.nodes", "count"},
          {"exec.steals", "count"},
          {"serve.batches", "count"},
          {"serve.batch_size_mean", "count"},
          {"serve.close_deadline_share", "share"},
          {"serve.queue_wait_mean_ms", "ms"},
          {"serve.handler_busy_s", "s"},
          {"serve.shed_share", "share"},
          {"serve.generator_late_p99_ms", "ms"},
          {"serve.bulk_tail_ms", "ms"},
          {"ingest.target_recall", "share"},
          {"ingest.rows_per_target", "ratio"},
          {"trace.overhead_share", "share"},
          {"trace.spans", "count"},
      };
  return *kMetrics;
}

void CompletePerLayer(RunResult& result) {
  std::map<std::string, Metric> given(result.metrics.begin(),
                                      result.metrics.end());
  MetricSet ordered;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = given.find(name);
    GOALEX_CHECK_MSG(it == given.end() || it->second.unit == unit,
                     "unit mismatch for " + name);
    ordered.emplace_back(name,
                         it == given.end() ? Metric{0.0, unit} : it->second);
    if (it != given.end()) given.erase(it);
  }
  GOALEX_CHECK_MSG(given.empty(),
                   "unlisted per-layer metric " + given.begin()->first);
  result.metrics = std::move(ordered);
}

}  // namespace perfbench
