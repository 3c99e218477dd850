#include "infer/packed.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "nn/linear.h"
#include "tensor/forward.h"
#include "tensor/packed.h"
#include "tensor/scratch.h"

namespace goalex::infer {
namespace {

constexpr float kLayerNormEps = 1e-5f;

int64_t RoundUp8(int64_t n) { return (n + 7) / 8 * 8; }

/// Argmax labels of `rows` logits rows of stride `cols`, scanning only the
/// first `n` real columns (the padded tail is zeros).
void ArgmaxLabels(const float* logits, int64_t rows, int64_t cols, int32_t n,
                  std::vector<int32_t>& labels) {
  labels.resize(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    labels[static_cast<size_t>(i)] = tensor::ArgmaxRow(logits + i * cols, n);
  }
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<PackedChunk> PackByLength(
    const std::vector<const std::vector<int32_t>*>& sequences,
    int64_t max_seq_len, int64_t chunk_tokens) {
  GOALEX_CHECK_GT(max_seq_len, 0);
  GOALEX_CHECK_GT(chunk_tokens, 0);
  // (length, caller index) for every non-empty sequence, stable-sorted by
  // length: equal lengths keep submission order, so packing is a pure
  // function of the input.
  std::vector<std::pair<int64_t, size_t>> order;
  order.reserve(sequences.size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    GOALEX_CHECK(sequences[i] != nullptr);
    const int64_t len = std::min<int64_t>(
        static_cast<int64_t>(sequences[i]->size()), max_seq_len);
    if (len > 0) order.emplace_back(len, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const std::pair<int64_t, size_t>& a,
                      const std::pair<int64_t, size_t>& b) {
                     return a.first < b.first;
                   });
  std::vector<PackedChunk> chunks;
  PackedChunk current;
  current.offsets.push_back(0);
  auto flush = [&chunks, &current]() {
    if (current.size() == 0) return;
    chunks.push_back(std::move(current));
    current = PackedChunk();
    current.offsets.push_back(0);
  };
  for (const auto& [len, index] : order) {
    // A sequence longer than the capacity still has to run somewhere; it
    // gets an oversize chunk of its own (flushed by the next iteration).
    if (current.tokens() + len > chunk_tokens && current.size() > 0) flush();
    const std::vector<int32_t>& ids = *sequences[index];
    current.ids.insert(current.ids.end(), ids.begin(), ids.begin() + len);
    current.offsets.push_back(current.tokens());
    current.sequence.push_back(index);
  }
  flush();
  return chunks;
}

PackedEngine::PackedEngine(const nn::TokenClassifier& model,
                           PackedEngineOptions options)
    : PackedEngine(model.encoder(), model.head(), model.num_labels(),
                   /*pooled=*/false, options) {}

PackedEngine::PackedEngine(const nn::SequenceClassifier& model,
                           PackedEngineOptions options)
    : PackedEngine(model.encoder(), model.head(), model.num_classes(),
                   /*pooled=*/true, options) {}

PackedEngine::PackedEngine(const nn::TransformerEncoder& encoder,
                           const nn::Linear& head, int32_t num_labels,
                           bool pooled, PackedEngineOptions options)
    : config_(encoder.config()),
      options_(options),
      pooled_(pooled),
      num_labels_(num_labels) {
  GOALEX_CHECK_GT(options_.chunk_tokens, 0);
  GOALEX_CHECK_GT(num_labels_, 0);
  auto pin = [this](const tensor::Var& var) -> const float* {
    pins_.push_back(var->value());
    return pins_.back().data();
  };
  token_embedding_ = pin(encoder.token_embedding());
  position_embedding_ = pin(encoder.position_embedding());
  for (const auto& layer : encoder.layers()) {
    LayerWeights lw;
    lw.ln1_gamma = pin(layer->ln1_gamma());
    lw.ln1_beta = pin(layer->ln1_beta());
    lw.qw = pin(layer->q_proj().weight());
    lw.qb = pin(layer->q_proj().bias());
    lw.kw = pin(layer->k_proj().weight());
    lw.kb = pin(layer->k_proj().bias());
    lw.vw = pin(layer->v_proj().weight());
    lw.vb = pin(layer->v_proj().bias());
    lw.ow = pin(layer->o_proj().weight());
    lw.ob = pin(layer->o_proj().bias());
    lw.ln2_gamma = pin(layer->ln2_gamma());
    lw.ln2_beta = pin(layer->ln2_beta());
    lw.f1w = pin(layer->ffn_in().weight());
    lw.f1b = pin(layer->ffn_in().bias());
    lw.f2w = pin(layer->ffn_out().weight());
    lw.f2b = pin(layer->ffn_out().bias());
    layers_.push_back(lw);
  }
  final_gamma_ = pin(encoder.final_gamma());
  final_beta_ = pin(encoder.final_beta());

  // The head is copied rather than borrowed: its num_labels columns are
  // zero-padded to a multiple of 8 so logits rows stay SIMD-width and the
  // one odd-shaped GEMM in the network hits the vector path. Padding
  // columns only append outputs — the real columns' chains are untouched,
  // so padded-head logits are bit-identical in [0, num_labels). Both modes
  // use this same padded float head (and the same stride), keeping int8's
  // logit layout equal to float's.
  const int64_t d = config_.d_model;
  head_cols_ = RoundUp8(num_labels_);
  const float* hw = head.weight()->value().data();
  const float* hb = head.bias()->value().data();
  head_weight_.assign(d * head_cols_, 0.0f);
  for (int64_t l = 0; l < d; ++l) {
    for (int64_t j = 0; j < num_labels_; ++j) {
      head_weight_[l * head_cols_ + j] = hw[l * num_labels_ + j];
    }
  }
  head_bias_.assign(head_cols_, 0.0f);
  std::copy(hb, hb + num_labels_, head_bias_.begin());

  if (options_.quantize_int8) {
    const int64_t ffn = config_.ffn_dim;
    for (const LayerWeights& lw : layers_) {
      QuantizedLayer ql;
      ql.q = tensor::QuantizeLinear(lw.qw, lw.qb, d, d);
      ql.k = tensor::QuantizeLinear(lw.kw, lw.kb, d, d);
      ql.v = tensor::QuantizeLinear(lw.vw, lw.vb, d, d);
      ql.o = tensor::QuantizeLinear(lw.ow, lw.ob, d, d);
      ql.f1 = tensor::QuantizeLinear(lw.f1w, lw.f1b, d, ffn);
      ql.f2 = tensor::QuantizeLinear(lw.f2w, lw.f2b, ffn, d);
      quantized_.push_back(std::move(ql));
    }
  }

  if (obs::Active()) {
    auto& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("infer.packed.engines")->Increment();
    chunks_ = registry.GetCounter("infer.packed.chunks");
    packed_tokens_ = registry.GetCounter("infer.packed.tokens");
    tokens_per_sec_ = registry.GetGauge("infer.packed.tokens_per_sec");
    // Fill = packed tokens / chunk capacity (can exceed 1 only for an
    // oversize singleton); occupancy = sequences per chunk.
    static const std::vector<double> kFillBounds = {0.1, 0.25, 0.5, 0.75,
                                                    0.9, 0.95, 1.0};
    batch_fill_ = registry.GetHistogram("infer.packed.batch_fill",
                                        kFillBounds);
    occupancy_ = registry.GetHistogram("infer.packed.bucket_occupancy",
                                       obs::DefaultSizeBounds());
    single_sequences_ = registry.GetCounter("infer.packed.single_sequences");
  }
}

PackedEngine::Layout PackedEngine::MakeLayout(int64_t total, int64_t nseq,
                                              int64_t max_t) const {
  const int64_t d = config_.d_model;
  const int64_t dh = d / config_.heads;
  Layout layout;
  size_t off = 0;
  auto take = [&off](int64_t n) {
    size_t r = off;
    off += static_cast<size_t>(n);
    return r;
  };
  layout.x = take(total * d);
  layout.h = take(total * d);
  layout.q = take(total * d);
  layout.k = take(total * d);
  layout.v = take(total * d);
  layout.attn = take(total * d);
  layout.x1 = take(total * d);
  layout.f1 = take(total * config_.ffn_dim);
  layout.pooled = take(pooled_ ? nseq * d : 0);
  layout.logits = take((pooled_ ? nseq : total) * head_cols_);
  layout.kat = take(dh * tensor::PackedAttentionStride(max_t));
  layout.scores = take(tensor::kPackedAttentionRowBlock *
                       tensor::PackedAttentionStride(max_t));
  layout.floats = off;
  return layout;
}

const float* PackedEngine::Forward(const int32_t* ids,
                                   const int64_t* offsets, int64_t nseq,
                                   int64_t total, bool int8,
                                   const Layout& layout,
                                   float* scratch) const {
  const int64_t d = config_.d_model;
  const int64_t ffn = config_.ffn_dim;
  float* x = scratch + layout.x;
  float* h = scratch + layout.h;
  float* q = scratch + layout.q;
  float* k = scratch + layout.k;
  float* v = scratch + layout.v;
  float* attn = scratch + layout.attn;
  float* x1 = scratch + layout.x1;
  float* f1 = scratch + layout.f1;
  float* logits = scratch + layout.logits;
  float* kat = scratch + layout.kat;
  float* scores = scratch + layout.scores;

  // Embeddings: the position ramp restarts at each sequence boundary.
  for (int64_t s = 0; s < nseq; ++s) {
    const int64_t seq_base = offsets[s];
    const int64_t t = offsets[s + 1] - seq_base;
    tensor::EmbedSumForward(token_embedding_, config_.vocab_size,
                            position_embedding_, ids + seq_base, t, d,
                            x + seq_base * d);
  }

  // Pre-LN encoder layers over the packed token axis. Only attention sees
  // the offsets table; everything else is one dense GEMM per op with the
  // residual adds and GELU fused into the producing linear's stores.
  for (size_t li = 0; li < layers_.size(); ++li) {
    const LayerWeights& lw = layers_[li];
    tensor::LayerNormPackedForward(x, lw.ln1_gamma, lw.ln1_beta, h, total, d,
                                   kLayerNormEps);
    if (int8) {
      const QuantizedLayer& ql = quantized_[li];
      tensor::QuantizedQkvForward(h, ql.q, ql.k, ql.v, q, k, v, total);
      tensor::AttentionPackedForward(q, k, v, attn, offsets, nseq, d,
                                     config_.heads, kat, scores);
      tensor::QuantizedLinearForward(attn, ql.o, x1, total,
                                     tensor::LinearEpilogue::kResidual, x);
      tensor::LayerNormPackedForward(x1, lw.ln2_gamma, lw.ln2_beta, h, total,
                                     d, kLayerNormEps);
      tensor::QuantizedLinearForward(h, ql.f1, f1, total,
                                     tensor::LinearEpilogue::kGelu, nullptr);
      tensor::QuantizedLinearForward(f1, ql.f2, x, total,
                                     tensor::LinearEpilogue::kResidual, x1);
    } else {
      tensor::LinearForward(h, lw.qw, lw.qb, q, total, d, d);
      tensor::LinearForward(h, lw.kw, lw.kb, k, total, d, d);
      tensor::LinearForward(h, lw.vw, lw.vb, v, total, d, d);
      tensor::AttentionPackedForward(q, k, v, attn, offsets, nseq, d,
                                     config_.heads, kat, scores);
      tensor::LinearResidualForward(attn, lw.ow, lw.ob, /*residual=*/x, x1,
                                    total, d, d);
      tensor::LayerNormPackedForward(x1, lw.ln2_gamma, lw.ln2_beta, h, total,
                                     d, kLayerNormEps);
      tensor::LinearGeluForward(h, lw.f1w, lw.f1b, f1, total, d, ffn);
      tensor::LinearResidualForward(f1, lw.f2w, lw.f2b, /*residual=*/x1, x,
                                    total, ffn, d);
    }
  }
  tensor::LayerNormPackedForward(x, final_gamma_, final_beta_, h, total, d,
                                 kLayerNormEps);
  if (pooled_) {
    // Sequence head: mean over each sequence's CSR row range (the tape's
    // MeanRows), then one head row per sequence.
    float* pooled = scratch + layout.pooled;
    for (int64_t s = 0; s < nseq; ++s) {
      tensor::MeanRowsForward(h + offsets[s] * d, pooled + s * d,
                              offsets[s + 1] - offsets[s], d);
    }
    tensor::LinearForward(pooled, head_weight_.data(), head_bias_.data(),
                          logits, nseq, d, head_cols_);
  } else {
    tensor::LinearForward(h, head_weight_.data(), head_bias_.data(), logits,
                          total, d, head_cols_);
  }
  return logits;
}

PackedEngine::ChunkLogits PackedEngine::ForwardChunk(
    const PackedChunk& chunk) const {
  ChunkLogits result;
  result.cols = head_cols_;
  const int64_t total = chunk.tokens();
  const int64_t nseq = chunk.size();
  if (total == 0) return result;
  GOALEX_CHECK_EQ(static_cast<int64_t>(chunk.offsets.size()), nseq + 1);
  const double start = NowSeconds();

  int64_t max_t = 0;
  for (int64_t s = 0; s < nseq; ++s) {
    const int64_t t = chunk.offsets[s + 1] - chunk.offsets[s];
    GOALEX_CHECK_GT(t, 0);
    GOALEX_CHECK_LE(t, static_cast<int64_t>(config_.max_seq_len));
    max_t = std::max(max_t, t);
  }

  // One storage block for all packed activations + attention scratch,
  // drawn through the thread's scratch allocator: inside an exec node
  // marked uses_scratch this is a pooled lease counted against
  // exec.scratch.peak_bytes, elsewhere a plain zeroed allocation.
  const Layout layout = MakeLayout(total, nseq, max_t);
  result.storage = tensor::AllocateTensorStorage(layout.floats);
  result.data = Forward(chunk.ids.data(), chunk.offsets.data(), nseq, total,
                        options_.quantize_int8, layout,
                        result.storage->data());
  result.rows = pooled_ ? nseq : total;

  if (chunks_ != nullptr) {
    chunks_->Increment();
    packed_tokens_->Increment(static_cast<uint64_t>(total));
    const double elapsed = NowSeconds() - start;
    if (elapsed > 0.0) {
      tokens_per_sec_->Set(static_cast<double>(total) / elapsed);
    }
    batch_fill_->Observe(static_cast<double>(total) /
                         static_cast<double>(options_.chunk_tokens));
    occupancy_->Observe(static_cast<double>(nseq));
  }
  return result;
}

tensor::ConstTensorView PackedEngine::ForwardSequence(
    const std::vector<int32_t>& ids) const {
  const int64_t t = std::min<int64_t>(static_cast<int64_t>(ids.size()),
                                      config_.max_seq_len);
  if (t == 0) return tensor::ConstTensorView(nullptr, 0, head_cols_);
  // Scratch shared by every engine on this thread: it only grows, so after
  // the first call at the longest length a call allocates nothing.
  thread_local std::vector<float> scratch;
  const Layout layout = MakeLayout(t, /*nseq=*/1, /*max_t=*/t);
  if (scratch.size() < layout.floats) scratch.resize(layout.floats);
  const int64_t offsets[2] = {0, t};
  const float* logits = Forward(ids.data(), offsets, /*nseq=*/1, t,
                                /*int8=*/false, layout, scratch.data());
  if (single_sequences_ != nullptr) single_sequences_->Increment();
  return tensor::ConstTensorView(logits, pooled_ ? 1 : t, head_cols_);
}

std::vector<int32_t> PackedEngine::PredictSequence(
    const std::vector<int32_t>& ids) const {
  const tensor::ConstTensorView logits = ForwardSequence(ids);
  std::vector<int32_t> labels;
  ArgmaxLabels(logits.data(), logits.rows(), logits.cols(), num_labels_,
               labels);
  return labels;
}

void PackedEngine::PredictChunk(const PackedChunk& chunk,
                                std::vector<std::vector<int32_t>>& out) const {
  const ChunkLogits logits = ForwardChunk(chunk);
  for (int64_t s = 0; s < chunk.size(); ++s) {
    // Logits rows of member s: its token range, or its one pooled row.
    const int64_t first = pooled_ ? s : chunk.offsets[s];
    const int64_t rows = pooled_ ? 1 : chunk.offsets[s + 1] - first;
    ArgmaxLabels(logits.data + first * logits.cols, rows, logits.cols,
                 num_labels_, out[chunk.sequence[s]]);
  }
}

std::vector<std::vector<int32_t>> PackedEngine::PredictBatch(
    const std::vector<const std::vector<int32_t>*>& sequences) const {
  std::vector<std::vector<int32_t>> out(sequences.size());
  for (const PackedChunk& chunk : PackByLength(
           sequences, config_.max_seq_len, options_.chunk_tokens)) {
    PredictChunk(chunk, out);
  }
  return out;
}

}  // namespace goalex::infer
