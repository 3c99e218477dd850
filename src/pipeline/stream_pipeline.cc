#include "pipeline/stream_pipeline.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "data/schema.h"
#include "exec/executor.h"
#include "exec/graph.h"
#include "llm/heuristics.h"
#include "runtime/thread_pool.h"
#include "values/value_normalizer.h"

namespace goalex::pipeline {
namespace {

/// Withdrawal cues ("We are no longer pursuing ...", "... has been
/// abandoned."). Checked against lowercased block text.
bool IsWithdrawal(const std::string& text) {
  const std::string lower = AsciiToLower(text);
  // Past-participle forms only: the bare stem "withdraw" would fire on
  // "fresh water withdrawal" objectives.
  return lower.find("no longer") != std::string::npos ||
         lower.find("withdrawn") != std::string::npos ||
         lower.find("abandoned") != std::string::npos;
}

/// First whitespace-delimited token of the normalized action lemma.
std::string ActionHeadLemma(const std::string& action) {
  std::string lemma = values::NormalizeAction(action);
  size_t space = lemma.find(' ');
  if (space != std::string::npos) lemma.resize(space);
  return lemma;
}

const std::set<std::string>& KnownActionVerbs() {
  static const std::set<std::string>* const kVerbs =
      new std::set<std::string>(
          llm::HeuristicLexicon::Generic().action_verbs);
  return *kVerbs;
}

/// Per-document headroom in the upsert source-sequence space; documents
/// with more extracted blocks than this are unheard of (a block is at
/// least a sentence).
constexpr int64_t kBlockSequenceStride = 1'000'000;

/// Detection chunks per pool thread: a few per worker let stealing even
/// out texts of different lengths.
constexpr size_t kDetectChunksPerThread = 4;

}  // namespace

StreamStages HeuristicStages() {
  auto lexicon = std::make_shared<llm::HeuristicLexicon>(
      llm::HeuristicLexicon::Generic());
  StreamStages stages;
  stages.is_objective = [lexicon](const std::string& text) {
    std::map<std::string, std::string> fields = llm::HeuristicExtract(
        text, data::SustainabilityGoalKinds(), *lexicon);
    return !fields["Action"].empty() || !fields["Amount"].empty();
  };
  stages.extract = [lexicon](const data::Objective& objective) {
    data::DetailRecord record;
    record.objective_id = objective.id;
    record.objective_text = objective.text;
    std::map<std::string, std::string> fields = llm::HeuristicExtract(
        objective.text, data::SustainabilityGoalKinds(), *lexicon);
    for (auto& [kind, value] : fields) {
      if (!value.empty()) record.fields[kind] = std::move(value);
    }
    return record;
  };
  return stages;
}

StreamPipeline::StreamPipeline(core::ObjectiveDatabase* db,
                               StreamStages stages,
                               StreamPipelineOptions options)
    : db_(db),
      stages_(std::move(stages)),
      options_(options),
      sdg_(options.sdg) {
  GOALEX_CHECK_MSG(db_ != nullptr, "StreamPipeline needs a database");
  GOALEX_CHECK_MSG(stages_.extract != nullptr,
                   "StreamStages.extract is required");
  GOALEX_CHECK_MSG(options_.trust_feed_labels || stages_.is_objective,
                   "StreamStages.is_objective is required unless the "
                   "pipeline trusts feed labels");
  if (obs::Active()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    unmatched_rate_gauge_ = registry.GetGauge("pipeline.unmatched_rate");
    unknown_kind_rate_gauge_ =
        registry.GetGauge("pipeline.unknown_kind_rate");
    docs_in_flight_gauge_ = registry.GetGauge("pipeline.docs_in_flight");
    documents_counter_ = registry.GetCounter("pipeline.documents");
    detections_counter_ = registry.GetCounter("pipeline.detections");
    objectives_counter_ = registry.GetCounter("pipeline.objectives");
    abandoned_counter_ = registry.GetCounter("pipeline.abandoned");
  }
}

/// Block b of document d reads its answer at
/// answers[text_ids[first_block[d] + b]].
struct StreamPipeline::Detection {
  std::vector<const std::string*> texts;  ///< Distinct, in feed order.
  std::vector<int32_t> text_ids;          ///< Per block, in feed order.
  std::vector<size_t> first_block;        ///< Per document.
  /// Per distinct text; bytes, not vector<bool>, because detection chunks
  /// write neighbouring entries concurrently.
  std::vector<uint8_t> answers;

  bool Detected(size_t document, size_t block) const {
    return answers[text_ids[first_block[document] + block]] != 0;
  }
};

StreamPipeline::Detection StreamPipeline::IndexDistinctTexts(
    const std::vector<data::TimedDocument>& documents) {
  size_t blocks = 0;
  for (const data::TimedDocument& document : documents) {
    blocks += document.report.blocks.size();
  }
  Detection detection;
  detection.text_ids.reserve(blocks);
  detection.first_block.reserve(documents.size());
  // Keys view the documents' own strings, which outlive the batch.
  std::unordered_map<std::string_view, int32_t> ids;
  ids.reserve(blocks);
  for (const data::TimedDocument& document : documents) {
    detection.first_block.push_back(detection.text_ids.size());
    for (const data::ReportBlock& block : document.report.blocks) {
      auto [it, inserted] = ids.try_emplace(
          block.text, static_cast<int32_t>(detection.texts.size()));
      if (inserted) detection.texts.push_back(&block.text);
      detection.text_ids.push_back(it->second);
    }
  }
  detection.answers.assign(detection.texts.size(), 0);
  return detection;
}

void StreamPipeline::DetectRange(Detection* detection, size_t begin,
                                 size_t end) const {
  for (size_t id = begin; id < end; ++id) {
    detection->answers[id] = stages_.is_objective(*detection->texts[id]);
  }
}

std::vector<StreamPipeline::BlockResult> StreamPipeline::RunDocument(
    const data::TimedDocument& document, const Detection& detection,
    size_t index, StreamStats* stats) const {
  std::vector<BlockResult> results;
  const data::Report& report = document.report;
  for (size_t i = 0; i < report.blocks.size(); ++i) {
    const data::ReportBlock& block = report.blocks[i];
    ++stats->blocks;
    const bool detected = options_.trust_feed_labels
                              ? block.is_objective
                              : detection.Detected(index, i);
    if (!detected) continue;
    ++stats->objectives;

    data::Objective objective;
    objective.id = report.document + "#b" + std::to_string(i);
    objective.text = block.text;
    objective.company = report.company;
    objective.document = report.document;
    objective.page = block.page;

    BlockResult result;
    result.page = block.page;
    result.record = stages_.extract(objective);
    result.abandoned = IsWithdrawal(block.text);
    if (result.abandoned) {
      result.record.fields[kStatusField] = "abandoned";
    }
    if (options_.classify_sdg) {
      std::string label = sdg::LabelString(sdg_.Classify(block.text));
      if (!label.empty()) result.record.fields[kSdgField] = std::move(label);
    }

    bool any_field = false;
    for (const auto& [kind, value] : result.record.fields) {
      if (!kind.empty() && kind[0] != '_' && !value.empty()) {
        any_field = true;
        break;
      }
    }
    if (!any_field) ++stats->unmatched;
    const std::string action = result.record.FieldOrEmpty("Action");
    if (!action.empty() &&
        KnownActionVerbs().count(ActionHeadLemma(action)) == 0) {
      ++stats->unknown_kind;
    }
    results.push_back(std::move(result));
  }
  return results;
}

void StreamPipeline::ApplyDocument(const data::TimedDocument& document,
                                   std::vector<BlockResult>& results,
                                   StreamStats* stats) {
  for (size_t i = 0; i < results.size(); ++i) {
    BlockResult& result = results[i];
    // Source sequence = document sequence widened by block position:
    // globally monotone in apply order, so when two blocks of ONE
    // document collide on an upsert key the later block wins and a
    // replay drops the earlier one as stale instead of ping-ponging the
    // row between the two contents forever.
    const int64_t sequence =
        document.sequence * kBlockSequenceStride + static_cast<int64_t>(i);
    core::UpsertResult upsert = db_->Upsert(
        result.record, document.report.company, document.report.document,
        result.page, sequence);
    if (upsert.inserted) ++stats->inserted;
    if (upsert.updated) ++stats->updated;
    if (upsert.unchanged()) ++stats->unchanged;
    if (result.abandoned) ++stats->abandoned;
  }
  ++stats->documents;
}

void StreamPipeline::PublishGauges() {
  if (unmatched_rate_gauge_ != nullptr) {
    unmatched_rate_gauge_->Set(totals_.unmatched_rate());
  }
  if (unknown_kind_rate_gauge_ != nullptr) {
    unknown_kind_rate_gauge_->Set(totals_.unknown_kind_rate());
  }
  if (docs_in_flight_gauge_ != nullptr) {
    docs_in_flight_gauge_->Set(
        static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
  }
}

StreamStats StreamPipeline::Process(
    const std::vector<data::TimedDocument>& documents) {
  StreamStats batch;
  // Per-document work results and stats, indexed by position so worker
  // interleaving cannot reorder anything observable.
  std::vector<std::vector<BlockResult>> results(documents.size());
  std::vector<StreamStats> work_stats(documents.size());

  const bool parallel = options_.parallel && documents.size() >= 2;
  std::unique_ptr<runtime::ThreadPool> pool;
  if (parallel) pool = std::make_unique<runtime::ThreadPool>(options_.workers);
  exec::Graph graph;

  // Phase 1: one detector call per distinct block text of the batch.
  Detection detection;
  // Empty, or the one node that joins the detection chunks.
  std::vector<exec::NodeId> detection_done;
  if (!options_.trust_feed_labels) {
    detection = IndexDistinctTexts(documents);
    const size_t distinct = detection.texts.size();
    batch.detections = static_cast<int64_t>(distinct);
    if (parallel && pool->thread_count() > 1) {
      const size_t chunks = static_cast<size_t>(pool->thread_count()) *
                            kDetectChunksPerThread;
      const size_t chunk =
          std::max<size_t>(1, (distinct + chunks - 1) / chunks);
      std::vector<exec::NodeId> chunk_nodes;
      for (size_t begin = 0; begin < distinct; begin += chunk) {
        const size_t end = std::min(distinct, begin + chunk);
        chunk_nodes.push_back(graph.Add([this, &detection, begin, end] {
          DetectRange(&detection, begin, end);
        }));
      }
      detection_done.push_back(graph.Add([] {}, std::move(chunk_nodes)));
    } else {
      DetectRange(&detection, 0, distinct);
    }
  }

  // Phase 2: per-document work, applied in feed order.
  auto merge_work = [](StreamStats* into, const StreamStats& from) {
    into->blocks += from.blocks;
    into->objectives += from.objectives;
    into->unmatched += from.unmatched;
    into->unknown_kind += from.unknown_kind;
  };
  auto apply_one = [&](size_t i) {
    merge_work(&batch, work_stats[i]);
    ApplyDocument(documents[i], results[i], &batch);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  };

  if (!parallel) {
    for (size_t i = 0; i < documents.size(); ++i) {
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      results[i] = RunDocument(documents[i], detection, i, &work_stats[i]);
      apply_one(i);
    }
  } else {
    exec::NodeId prev_apply = exec::kInvalidNode;
    for (size_t i = 0; i < documents.size(); ++i) {
      // Every work node waits for the whole detection phase.
      exec::NodeId work = graph.Add(
          [this, &documents, &detection, &results, &work_stats, i] {
            in_flight_.fetch_add(1, std::memory_order_relaxed);
            if (docs_in_flight_gauge_ != nullptr) {
              docs_in_flight_gauge_->Set(static_cast<double>(
                  in_flight_.load(std::memory_order_relaxed)));
            }
            results[i] =
                RunDocument(documents[i], detection, i, &work_stats[i]);
          },
          detection_done);
      std::vector<exec::NodeId> deps = {work};
      if (prev_apply != exec::kInvalidNode) deps.push_back(prev_apply);
      // Apply nodes form a chain in feed order: upsert i+1 starts only
      // after upsert i committed, which pins row ids and versions.
      prev_apply = graph.Add([&apply_one, i] { apply_one(i); },
                             std::move(deps));
    }
    exec::Executor executor(pool.get());
    Status status = executor.Run(graph);
    GOALEX_CHECK_MSG(status.ok(), status.message());
  }

  totals_.documents += batch.documents;
  totals_.blocks += batch.blocks;
  totals_.detections += batch.detections;
  totals_.objectives += batch.objectives;
  totals_.inserted += batch.inserted;
  totals_.updated += batch.updated;
  totals_.unchanged += batch.unchanged;
  totals_.abandoned += batch.abandoned;
  totals_.unmatched += batch.unmatched;
  totals_.unknown_kind += batch.unknown_kind;
  if (documents_counter_ != nullptr) {
    documents_counter_->Increment(static_cast<uint64_t>(batch.documents));
  }
  if (detections_counter_ != nullptr) {
    detections_counter_->Increment(static_cast<uint64_t>(batch.detections));
  }
  if (objectives_counter_ != nullptr) {
    objectives_counter_->Increment(static_cast<uint64_t>(batch.objectives));
  }
  if (abandoned_counter_ != nullptr) {
    abandoned_counter_->Increment(static_cast<uint64_t>(batch.abandoned));
  }
  PublishGauges();
  return batch;
}

}  // namespace goalex::pipeline
