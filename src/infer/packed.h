#ifndef GOALEX_INFER_PACKED_H_
#define GOALEX_INFER_PACKED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/transformer.h"
#include "obs/metrics.h"
#include "tensor/qlinear.h"
#include "tensor/tensor.h"
#include "tensor/view.h"

namespace goalex::infer {

/// Packed-batch inference (DESIGN.md §14): the cross-example counterpart to
/// Engine's per-example plans. Variable-length sequences are bucketed by
/// length into capacity-bounded chunks and laid out token-major with a
/// per-sequence offsets table; every layer then runs as one padding-free
/// GEMM over the packed token axis, with attention streaming per-sequence
/// tiles (tensor/packed.h). A single sequence runs the same kernels as a
/// one-member chunk (PackedEngine::ForwardSequence). Float outputs are
/// bit-identical per sequence to Engine::Execute and to the autograd
/// evaluation path; the optional int8 mode trades exactness for batch
/// throughput.

/// One packed batch: token ids for all member sequences back to back.
/// Sequence s (0 ≤ s < size()) owns ids[offsets[s]..offsets[s+1]) and came
/// from the caller's sequence index `sequence[s]`.
struct PackedChunk {
  std::vector<int32_t> ids;      ///< [tokens()] packed token ids.
  std::vector<int64_t> offsets;  ///< [size() + 1] boundaries into ids.
  std::vector<size_t> sequence;  ///< [size()] caller index per member.

  int64_t tokens() const { return static_cast<int64_t>(ids.size()); }
  int64_t size() const { return static_cast<int64_t>(sequence.size()); }
};

/// Buckets `sequences` by token length into chunks of at most
/// `chunk_tokens` packed tokens. Sequences are truncated to `max_seq_len`
/// (matching Engine::Execute) and empty sequences are skipped — callers
/// get no labels for them, exactly like the per-example path. Packing is
/// deterministic: a stable sort by length (ties keep submission order)
/// followed by greedy capacity-bounded fill, so equal inputs always
/// produce equal chunks. A single sequence longer than `chunk_tokens` is
/// admitted as an oversize chunk of its own rather than rejected.
std::vector<PackedChunk> PackByLength(
    const std::vector<const std::vector<int32_t>*>& sequences,
    int64_t max_seq_len, int64_t chunk_tokens);

struct PackedEngineOptions {
  /// Packed-token capacity per chunk. Bounds peak activation memory
  /// (roughly chunk_tokens · (7·d_model + ffn_dim + head columns) floats)
  /// and is the denominator of the batch-fill metric.
  int64_t chunk_tokens = 512;
  /// Run the six per-layer projections as int8 kernels (tensor/qlinear.h)
  /// instead of float GEMMs. Embeddings, layer norms, attention, and the
  /// classifier head stay float.
  bool quantize_int8 = false;
};

/// Compiled packed executor over a trained model, with one of two heads:
///   - token head (nn::TokenClassifier): one logits row per token;
///   - sequence head (nn::SequenceClassifier): the final hidden states are
///     mean-pooled over each sequence's CSR row range, then one logits row
///     per sequence.
/// Like infer::Engine the float weights are borrowed (pinned via shared
/// tensor storage), but the engine also *derives* state at construction —
/// the zero-padded classifier head and, in int8 mode, the quantized codes —
/// so a PackedEngine must be rebuilt after any weight update (the extractor
/// rebuilds per training epoch). Stateless after construction: all methods
/// are const and safe to call concurrently; chunk calls own their scratch
/// and single-sequence calls use per-thread scratch.
class PackedEngine {
 public:
  PackedEngine(const nn::TokenClassifier& model, PackedEngineOptions options);
  PackedEngine(const nn::SequenceClassifier& model,
               PackedEngineOptions options);

  /// Argmax labels of every member of `chunk` — one per token (token head)
  /// or one per sequence (sequence head) — written to
  /// out[chunk.sequence[s]] (slots for other chunks are untouched, so
  /// disjoint chunks can predict into one vector concurrently).
  void PredictChunk(const PackedChunk& chunk,
                    std::vector<std::vector<int32_t>>& out) const;

  /// Packs `sequences` (PackByLength) and predicts every chunk. Entry i of
  /// the result holds the labels of sequences[i]; empty sequences yield
  /// empty label vectors.
  std::vector<std::vector<int32_t>> PredictBatch(
      const std::vector<const std::vector<int32_t>*>& sequences) const;

  /// Raw packed logits for one chunk: [rows, logit_cols()] row-major, where
  /// rows is chunk.tokens() (token head) or chunk.size() (sequence head),
  /// alive while the returned storage is held. Columns past num_labels()
  /// are zero padding (the head is padded to a SIMD-friendly width);
  /// argmax must scan only the first num_labels() columns.
  struct ChunkLogits {
    std::shared_ptr<std::vector<float>> storage;
    const float* data = nullptr;
    int64_t rows = 0;
    int64_t cols = 0;
  };
  ChunkLogits ForwardChunk(const PackedChunk& chunk) const;

  /// One sequence as a one-member chunk (offsets {0, t}, t = min(ids.size(),
  /// max_seq_len)) without PackByLength's copy, on this thread's reusable
  /// scratch. Returns [t, logit_cols()] logits (token head) or
  /// [1, logit_cols()] (sequence head), bit-identical to the matching rows
  /// of ForwardChunk. The view is valid until this thread's next
  /// ForwardSequence/PredictSequence call on any engine. Always runs the
  /// float kernels: int8 is a batch-throughput trade, and single calls
  /// (Extract, detection) stay exact. Empty `ids` yields an empty view.
  tensor::ConstTensorView ForwardSequence(
      const std::vector<int32_t>& ids) const;

  /// Argmax labels of ForwardSequence(ids): t per-token labels (token head)
  /// or the one class (sequence head).
  std::vector<int32_t> PredictSequence(const std::vector<int32_t>& ids) const;

  int64_t chunk_tokens() const { return options_.chunk_tokens; }
  bool quantized() const { return options_.quantize_int8; }
  /// True for the sequence head (mean-pooled, one logits row per sequence).
  bool pooled() const { return pooled_; }
  int32_t num_labels() const { return num_labels_; }
  int64_t logit_cols() const { return head_cols_; }
  int64_t max_seq_len() const { return config_.max_seq_len; }

 private:
  /// Float offsets of every activation in one forward's scratch block.
  struct Layout {
    size_t x, h, q, k, v, attn, x1, f1, pooled, logits, kat, scores;
    size_t floats;  ///< Total block size.
  };

  PackedEngine(const nn::TransformerEncoder& encoder, const nn::Linear& head,
               int32_t num_labels, bool pooled, PackedEngineOptions options);

  Layout MakeLayout(int64_t total, int64_t nseq, int64_t max_t) const;

  /// Runs the network over `nseq` sequences packed in ids[0..total) with
  /// CSR `offsets`, in `scratch` laid out by `layout`. Returns the logits
  /// (layout.logits).
  const float* Forward(const int32_t* ids, const int64_t* offsets,
                       int64_t nseq, int64_t total, bool int8,
                       const Layout& layout, float* scratch) const;

  struct LayerWeights {
    const float* ln1_gamma = nullptr;
    const float* ln1_beta = nullptr;
    const float* qw = nullptr;
    const float* qb = nullptr;
    const float* kw = nullptr;
    const float* kb = nullptr;
    const float* vw = nullptr;
    const float* vb = nullptr;
    const float* ow = nullptr;
    const float* ob = nullptr;
    const float* ln2_gamma = nullptr;
    const float* ln2_beta = nullptr;
    const float* f1w = nullptr;
    const float* f1b = nullptr;
    const float* f2w = nullptr;
    const float* f2b = nullptr;
  };
  struct QuantizedLayer {
    tensor::QuantizedLinear q, k, v, o, f1, f2;
  };

  nn::TransformerConfig config_;
  PackedEngineOptions options_;
  bool pooled_ = false;
  int32_t num_labels_ = 0;
  int64_t head_cols_ = 0;

  /// Shared-storage copies keeping every borrowed weight pointer alive.
  std::vector<tensor::Tensor> pins_;
  const float* token_embedding_ = nullptr;
  const float* position_embedding_ = nullptr;
  std::vector<LayerWeights> layers_;
  const float* final_gamma_ = nullptr;
  const float* final_beta_ = nullptr;
  /// Owned zero-padded head ([d_model, head_cols_] / [head_cols_]); used in
  /// both float and int8 modes so the logit layout never depends on the
  /// quantization knob.
  std::vector<float> head_weight_;
  std::vector<float> head_bias_;
  std::vector<QuantizedLayer> quantized_;

  obs::Counter* chunks_ = nullptr;
  obs::Counter* packed_tokens_ = nullptr;
  obs::Gauge* tokens_per_sec_ = nullptr;
  obs::Histogram* batch_fill_ = nullptr;
  obs::Histogram* occupancy_ = nullptr;
  obs::Counter* single_sequences_ = nullptr;
};

}  // namespace goalex::infer

#endif  // GOALEX_INFER_PACKED_H_
