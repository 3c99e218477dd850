#ifndef GOALEX_CORE_CONFIG_H_
#define GOALEX_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/transformer.h"
#include "weaksup/weak_labeler.h"

namespace goalex::core {

/// Transformer model families compared in Figure 4. This reproduction
/// scales the architectures down for CPU training (see DESIGN.md §3) while
/// keeping the distinctions that drive the figure: RoBERTa-like models use
/// a cased BPE tokenizer and learned position embeddings; BERT-like models
/// use an uncased tokenizer and fixed sinusoidal positions; distilled
/// variants halve the depth.
enum class ModelPreset {
  kRoberta,
  kDistilRoberta,
  kBert,
  kDistilBert,
};

/// Returns a human-readable preset name ("roberta", ...).
const char* ModelPresetName(ModelPreset preset);

/// Full configuration of the detail extraction system (development phase of
/// Figure 2). Defaults follow Section 3.3: RoBERTa, up to 10 epochs,
/// learning rate 5e-5, batch size 16, Adam.
struct ExtractorConfig {
  /// Extraction schema (entity kinds).
  std::vector<std::string> kinds;

  ModelPreset preset = ModelPreset::kRoberta;
  int32_t epochs = 10;
  /// Nominal learning rate as reported in the paper.
  float learning_rate = 5e-5f;
  /// The paper fine-tunes a pretrained 125M-parameter RoBERTa, where 5e-5
  /// is appropriate; this reproduction trains a scaled-down model from
  /// scratch, which needs a proportionally larger step. The effective rate
  /// is learning_rate * learning_rate_scale; the nominal value keeps the
  /// paper's hyperparameter axes (Figure 4) directly comparable.
  float learning_rate_scale = 20.0f;
  int32_t batch_size = 16;
  float dropout = 0.1f;
  uint64_t seed = 17;

  /// Tokenizer: number of BPE merges learned from the training corpus.
  size_t bpe_merges = 2600;
  int32_t max_seq_len = 96;

  /// Scaled-down architecture dimensions (see ModelPreset for the
  /// family-specific tokenizer/position/depth differences).
  int32_t d_model = 64;
  int32_t heads = 4;
  int32_t ffn_dim = 128;
  int32_t base_layers = 2;  ///< Distilled presets use half of this.

  /// GoalSpotter-style text normalization before tokenization.
  bool normalize_text = true;

  /// Worker threads for the corpus-scale fan-out stages (ExtractAll,
  /// LabelAll) and for the data-parallel fine-tuning loop in Train():
  /// 0 = auto (std::thread::hardware_concurrency()), 1 = serial. Outputs —
  /// including trained weights — are byte-identical for every setting
  /// (nn/trainer.h pins the gradient-reduction order); only throughput
  /// changes.
  int32_t num_threads = 0;

  /// Observability: when true, extraction and training record per-stage
  /// latency histograms, span counters, and throughput gauges into
  /// obs::MetricsRegistry::Default() (see DESIGN.md §7). Instrumentation
  /// is also gated globally by obs::SetEnabled() and can be compiled out
  /// entirely with -DGOALEX_DISABLE_METRICS; outputs never depend on it.
  bool enable_metrics = true;

  /// Production inference strategy. When true (default), Predict runs on a
  /// graph-free engine built once at Train()/Load() completion (the packed
  /// engine, or the per-example infer::Engine when packed_inference is
  /// off), executed against per-thread scratch with borrowed weights. When
  /// false, Predict walks the autograd evaluation path. All paths produce
  /// bit-identical outputs (enforced by infer_parity_test); the flag exists
  /// as an escape hatch and for A/B benchmarking.
  bool use_inference_engine = true;

  /// Packed inference (DESIGN.md §14). When true (default, requires
  /// use_inference_engine), batch extraction (`ExtractAll` and the serve
  /// handler) buckets clauses by token length and runs each bucket as one
  /// padding-free packed forward with streaming-softmax attention, and
  /// single-clause Extract() calls run the same kernels as one-sequence
  /// chunks. When false, every clause runs one per-example infer::Engine
  /// plan. Float outputs are bit-identical either way (enforced by
  /// infer_packed_test).
  bool packed_inference = true;

  /// Packed-token capacity of one packed-inference bucket. Bounds peak
  /// activation memory per predict node and sets the batch-fill metric's
  /// denominator; a clause longer than this still runs, in an oversize
  /// bucket of its own.
  int32_t packed_chunk_tokens = 512;

  /// Run packed-inference linear layers as int8 (per-output-channel weight
  /// scales, per-row activation quantization, int32 accumulation —
  /// tensor/qlinear.h). Roughly another ~1.2x on packed throughput, but
  /// outputs are no longer bit-identical to float: extraction F1 stays
  /// within 0.5 points (gated by bench_micro_infer --smoke). Off by
  /// default; no effect unless packed_inference is on, and batch-only:
  /// single-clause Extract() calls stay float.
  bool quantize_int8 = false;

  /// Objective segmentation (Section 5.3 future work): at extraction time,
  /// split multi-target objectives into single-target clauses, extract per
  /// clause, and merge (first non-empty value per field wins). Off by
  /// default, matching the deployed system.
  bool segment_multi_target = false;

  /// Weak labeling options (exact matching by default, as deployed).
  weaksup::WeakLabelerOptions weak_labeler;

  /// Returns the tokenizer casing for the preset (true = lowercase).
  bool LowercaseTokenizer() const;

  /// Builds the nn-level architecture config (vocab size filled by the
  /// trainer once the tokenizer exists).
  nn::TransformerConfig BuildTransformerConfig(int32_t vocab_size) const;

  /// Effective optimizer step size.
  float EffectiveLearningRate() const {
    return learning_rate * learning_rate_scale;
  }

  /// Serializes to a line-based key=value text (used when persisting a
  /// trained model directory).
  std::string ToText() const;

  /// Parses ToText() output. Strict by design: numeric values are parsed
  /// with std::from_chars and malformed input (empty, non-numeric, trailing
  /// garbage, out of range — e.g. "epochs=abc") is rejected with an
  /// InvalidArgumentError naming the key, never silently coerced to 0;
  /// boolean keys accept only "0" or "1".
  static StatusOr<ExtractorConfig> FromText(std::string_view text);
};

/// Parses a preset name ("roberta", "distilbert", ...).
StatusOr<ModelPreset> ParseModelPreset(std::string_view name);

/// Knobs of the extraction service (src/serve): a long-running scheduler
/// that turns the batch ExtractAll path into a request/response service
/// with work-conserving batch formation and SLO-aware admission control
/// (see DESIGN.md §11). There is no batch-formation timer: the scheduler
/// dispatches whenever its handler is free and a request is waiting.
struct ServeConfig {
  /// Upper bound on one dispatched batch. Requests that arrive while a
  /// batch runs form the next one, so batches grow with load up to this.
  int32_t max_batch_size = 16;

  /// Admission control: new requests are shed (Status kResourceExhausted)
  /// once this many admitted requests are waiting to be scheduled.
  /// Bulk-priority requests are shed at half this depth so interactive
  /// traffic keeps headroom under load.
  int32_t max_queue_depth = 1024;

  /// Admission control: requests are also shed when the estimated
  /// queueing delay — queue depth times the EMA of observed per-request
  /// service time — exceeds this bound. <= 0 derives the bound from the
  /// SLO: slo_p99_ms (no request ever waits for a batch to fill, so the
  /// queue may consume the whole latency budget).
  double max_queue_delay_ms = 0.0;

  /// End-to-end p99 latency target the service is operated against. Used
  /// to derive the shed threshold (above) and reported against by
  /// bench_serve; the scheduler itself never drops an admitted request.
  double slo_p99_ms = 50.0;

  /// Workers of the thread pool a batch's extraction fans out on:
  /// 0 = auto, 1 = serial (inference runs on the scheduler thread). The
  /// scheduler waits for each batch either way.
  int32_t num_threads = 1;

  /// EMA smoothing factor for the per-request service-time estimate in
  /// (0, 1]; higher adapts faster, lower rides out bursts.
  double service_time_ema_alpha = 0.2;

  /// WAL durability policy of the result database when the service runs
  /// against an attached (Open()ed) ObjectiveDatabase — forwarded to
  /// DbOptions::wal_fsync_interval. 1 fsyncs every record (crash-safe
  /// default), N > 1 every N-th record (bounded loss window, higher
  /// ingest throughput), 0 never (the OS decides when to flush).
  int32_t db_wal_fsync_interval = 1;

  /// Effective queue-delay bound in seconds (resolves the <= 0 default).
  double EffectiveQueueDelaySeconds() const {
    const double ms = max_queue_delay_ms > 0.0 ? max_queue_delay_ms
                                               : slo_p99_ms;
    return ms > 0.0 ? ms / 1000.0 : 0.0;
  }

  /// Rejects non-positive sizes and SLO, and out-of-range alpha.
  Status Validate() const;
};

}  // namespace goalex::core

#endif  // GOALEX_CORE_CONFIG_H_
