#ifndef GOALEX_PIPELINE_STREAM_PIPELINE_H_
#define GOALEX_PIPELINE_STREAM_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "data/stream.h"
#include "obs/metrics.h"
#include "sdg/sdg.h"

namespace goalex::pipeline {

/// Reserved field carrying target status; set to "abandoned" when the
/// source block is a withdrawal statement ("no longer pursuing ...").
inline constexpr char kStatusField[] = "_status";
/// Reserved field carrying the SDG labels ("SDG13 SDG7").
inline constexpr char kSdgField[] = "_sdg";

/// The two model-dependent stages of the streaming pipeline, injected so
/// the same orchestration runs with heuristic, CRF, or neural stages.
/// Both must be thread-safe for concurrent calls (they run on executor
/// workers).
struct StreamStages {
  /// Detection: is this report block a sustainability objective? Must be
  /// a pure function of `text`: StreamPipeline::Process calls it once per
  /// distinct block text of a batch and hands that answer to every block
  /// carrying the text. Required unless the pipeline trusts feed labels.
  std::function<bool(const std::string& text)> is_objective;
  /// Detail extraction for a detected objective.
  std::function<data::DetailRecord(const data::Objective& objective)> extract;
};

/// Dependency-free stages backed by the zero-shot heuristic extractor.
/// Detection fires when extraction finds an action or an amount — cheap
/// and deterministic, the default for tests and benches.
StreamStages HeuristicStages();

struct StreamPipelineOptions {
  /// Run per-document work on an exec::Graph over a thread pool. Apply
  /// order is pinned to feed order either way, so serial and parallel
  /// ingest produce byte-identical databases.
  bool parallel = true;
  /// Worker threads (0 = hardware concurrency).
  int workers = 0;
  /// Trust the feed's is_objective flags (upstream detection already ran)
  /// instead of calling stages.is_objective.
  bool trust_feed_labels = true;
  /// Attach SDG labels (kSdgField) to extracted records.
  bool classify_sdg = true;
  sdg::SdgClassifierOptions sdg;
};

/// Ingest counters. Rates are drift signals for dashboards: a rising
/// unmatched rate means the extractor stopped finding details in incoming
/// text (domain drift); a rising unknown-kind rate means new action verbs
/// outside the lexicon.
struct StreamStats {
  int64_t documents = 0;
  int64_t blocks = 0;
  /// Calls to StreamStages::is_objective: one per distinct block text of
  /// each Process batch, 0 when the feed's labels are trusted.
  int64_t detections = 0;
  int64_t objectives = 0;  ///< Blocks that passed detection.
  int64_t inserted = 0;
  int64_t updated = 0;
  int64_t unchanged = 0;
  int64_t abandoned = 0;  ///< Withdrawal blocks applied.
  /// Objectives where extraction produced no non-empty field.
  int64_t unmatched = 0;
  /// Objectives whose action verb lemma is outside the known verb set.
  int64_t unknown_kind = 0;

  double unmatched_rate() const {
    return objectives == 0
               ? 0.0
               : static_cast<double>(unmatched) /
                     static_cast<double>(objectives);
  }
  double unknown_kind_rate() const {
    return objectives == 0
               ? 0.0
               : static_cast<double>(unknown_kind) /
                     static_cast<double>(objectives);
  }
};

/// Streaming corpus-to-dashboard ingest: detection -> extraction -> SDG
/// labeling -> versioned database upsert.
///
/// Process runs in two phases. Detection comes first and is scoped to the
/// batch: the batch's blocks are indexed by distinct text, first
/// occurrence in feed order, and stages.is_objective runs once per
/// distinct text (in contiguous chunks on executor workers when the pool
/// has more than one thread, inline otherwise), so blocks whose text
/// repeats within the batch share one call. Nothing is kept between
/// Process calls.
///
/// Per-document work (extract/classify — reading each block's detection
/// answer by index) then fans out across executor workers; the
/// database-apply step for document i depends on both its own work node
/// and apply(i-1), so upserts land in feed order regardless of worker
/// interleaving. Row ids, versions, and ExportCsv output are therefore
/// identical between serial and parallel ingest of the same feed, and
/// replaying a feed is idempotent (every upsert lands unchanged).
///
/// The database must be constructed with DbOptions::track_upserts.
class StreamPipeline {
 public:
  StreamPipeline(core::ObjectiveDatabase* db, StreamStages stages,
                 StreamPipelineOptions options = {});

  /// Ingests `documents` in sequence order; returns this batch's stats.
  StreamStats Process(const std::vector<data::TimedDocument>& documents);

  /// Stats accumulated across every Process call.
  const StreamStats& totals() const { return totals_; }

 private:
  struct BlockResult {
    data::DetailRecord record;
    int page = 0;
    bool abandoned = false;
  };

  /// The detection phase's output for one batch (stream_pipeline.cc).
  struct Detection;

  static Detection IndexDistinctTexts(
      const std::vector<data::TimedDocument>& documents);
  void DetectRange(Detection* detection, size_t begin, size_t end) const;
  std::vector<BlockResult> RunDocument(const data::TimedDocument& document,
                                       const Detection& detection,
                                       size_t index, StreamStats* stats) const;
  void ApplyDocument(const data::TimedDocument& document,
                     std::vector<BlockResult>& results, StreamStats* stats);
  void PublishGauges();

  core::ObjectiveDatabase* db_;
  StreamStages stages_;
  StreamPipelineOptions options_;
  sdg::SdgClassifier sdg_;
  StreamStats totals_;
  std::atomic<int64_t> in_flight_{0};

  obs::Gauge* unmatched_rate_gauge_ = nullptr;
  obs::Gauge* unknown_kind_rate_gauge_ = nullptr;
  obs::Gauge* docs_in_flight_gauge_ = nullptr;
  obs::Counter* documents_counter_ = nullptr;
  obs::Counter* detections_counter_ = nullptr;
  obs::Counter* objectives_counter_ = nullptr;
  obs::Counter* abandoned_counter_ = nullptr;
};

}  // namespace goalex::pipeline

#endif  // GOALEX_PIPELINE_STREAM_PIPELINE_H_
