#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/extractor.h"
#include "data/stream.h"
#include "goalspotter/detector.h"
#include "pipeline/stream_pipeline.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// What the command line asked for.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Empty directory inside the checkout the run may write to.
  std::string work_dir;
  /// The machine's core count, recorded beside the metrics. Each workload
  /// keeps at most two threads busy, so workers plus generator threads
  /// stay at or below it.
  int cpus = 1;
};

/// Outcome of one workload run. `metrics` holds the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced one.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Failed correctness checks; any entry fails the run.
  std::vector<std::string> check_failures;
  /// Informational lines (sample counts, digests) printed before the
  /// result.
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what);
  void Note(const std::string& line);
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds a per-layer metric with the unit PerLayerMetrics() lists.
  void AddLayer(const std::string& name, double value);
};

RunResult RunIngestNeural(const RunOptions& options);
RunResult RunServePoisson(const RunOptions& options);

// --- Shared set-up ---------------------------------------------------------

/// The paper's transformer extractor, trained deterministically on a
/// fixed synthetic corpus (the model is part of the program, not of the
/// workload input, so it does not depend on the seed). Training runs on
/// one thread: the weights are the same for any thread count, and a
/// serial set-up time is less sensitive to a busy host.
std::unique_ptr<goalex::core::DetailExtractor> TrainExtractor();

/// Transformer objective detector trained on the same corpus's objectives
/// against boilerplate noise.
std::unique_ptr<goalex::goalspotter::TransformerObjectiveDetector>
TrainDetector();

/// The neural StreamStages adapter: detection by the transformer
/// detector, extraction by DetailExtractor::Extract, each call wrapped in
/// a benchmark span (goalspotter.detect / core.extract). Both objects
/// must outlive the stages.
goalex::pipeline::StreamStages NeuralStages(
    const goalex::goalspotter::TransformerObjectiveDetector& detector,
    const goalex::core::DetailExtractor& extractor);

/// A multi-year report feed. The stream generator's company pool caps at
/// 16, so the feed concatenates `substreams` independently seeded streams
/// with their companies renamed ("Aurora Energy #2"), merged per year.
struct Feed {
  /// Documents per feed file, one file per simulated year, in order;
  /// sequence numbers are global across files.
  std::vector<std::vector<goalex::data::TimedDocument>> files;
  /// Ground truth, with the same company renaming.
  std::vector<goalex::data::StreamTargetTruth> targets;
  size_t documents = 0;
};

struct FeedShape {
  int substreams = 4;
  int years = 8;
  int noise_blocks = 8;
};

Feed GenerateFeed(uint64_t seed, const FeedShape& shape);

/// Writes the feed's documents, in sequence order, as files of
/// `documents_per_file` documents each (the last may hold fewer), named
/// `<dir>/feed-<NNN>.goalexfeed`; returns the paths in feed order.
std::vector<std::string> WriteFeedFiles(const Feed& feed,
                                        const std::string& dir,
                                        size_t documents_per_file);

/// Derives an independent generator seed for `stream` from the run seed
/// (SplitMix64 finaliser).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Extraction kinds exported by ExportCsv digests.
const std::vector<std::string>& ExportKinds();

/// FNV-1a 64-bit digest, printed as hex.
std::string Digest(const std::string& bytes);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Removes `path` recursively (best effort).
void RemoveTree(const std::string& path);

/// Field-by-field equality of two records.
bool SameRecord(const goalex::data::DetailRecord& a,
                const goalex::data::DetailRecord& b);

/// Adds latency_p50_ms / latency_tail_ms from samples in seconds, in the
/// order taken, cut into windows of kTailWindowSamples (SummarizeWindows),
/// and notes the sample count and the tail percentile used.
void AddLatencyMetrics(RunResult& result, const std::string& what,
                       const std::vector<double>& samples_s);

/// Every per-layer metric, each workload filling the layers it
/// exercises; the others report 0 (the layer did no work).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills missing per-layer metrics with 0 and orders them as listed.
void CompletePerLayer(RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
