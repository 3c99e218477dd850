#ifndef GOALEX_TENSOR_PACKED_H_
#define GOALEX_TENSOR_PACKED_H_

#include <cstdint>

#include "tensor/simd.h"

namespace goalex::tensor {

/// Padding-free packed-batch kernels (DESIGN.md §14). A packed batch lays
/// variable-length sequences out token-major — activations are a single
/// dense [total_tokens, n] matrix with no padding rows — and an offsets
/// table offsets[0..nseq] marks sequence boundaries (sequence s owns token
/// rows [offsets[s], offsets[s+1])). Row-wise ops (layer norm, linears,
/// GELU) ignore the boundaries entirely and run as one GEMM over the packed
/// token axis; only attention consults the offsets table, so no sequence
/// ever attends across its neighbours.
///
/// Like forward.h, every kernel here is bit-identical per sequence to its
/// per-example counterpart — parity is pinned by infer_packed_test.

/// Query rows processed per streaming-softmax tile in
/// AttentionPackedForward. Callers size `score_scratch` with this.
inline constexpr int64_t kPackedAttentionRowBlock = 8;

/// Row stride, in floats, of AttentionPackedForward's per-head scratch for
/// a sequence of t tokens: t rounded up to whole vectors, so score and
/// transposed-K rows are read and written without masks.
inline constexpr int64_t PackedAttentionStride(int64_t t) {
  return (t + kSimdLanes - 1) / kSimdLanes * kSimdLanes;
}

/// LayerNormForward over the packed token axis: same double-precision
/// mean/variance chains per row (four or eight rows ride in parallel double
/// lanes, serial within each lane; see simd.h), same float normalize.
/// Equivalent to
/// LayerNormForward(x, gamma, beta, out, m, n, eps, nullptr, nullptr).
void LayerNormPackedForward(const float* x, const float* gamma,
                            const float* beta, float* out, int64_t m,
                            int64_t n, float eps);

/// Multi-head scaled dot-product self-attention over a packed batch,
/// streaming-softmax edition: q, k, v, out are packed [total_tokens, d].
/// Per sequence and head, scores are produced kPackedAttentionRowBlock
/// query rows at a time and immediately reduced (running row max →
/// exp/normalizer → probs×V with the 1/sum folded into the broadcast), so
/// peak scratch is O(row_block · t) instead of AttentionForward's O(t²)
/// score matrix — flash-attention structure, CPU edition.
///
/// `kat_scratch` must hold (d/heads) · PackedAttentionStride(max_t) floats
/// and `score_scratch` kPackedAttentionRowBlock ·
/// PackedAttentionStride(max_t) floats, where max_t is the longest sequence
/// in the batch. Outputs are bit-identical per sequence to
/// AttentionForward (same fmaf chains per output; masked/non-finite score
/// tiles fall back to SoftmaxRow exactly like the reference).
void AttentionPackedForward(const float* q, const float* k, const float* v,
                            float* out, const int64_t* offsets, int64_t nseq,
                            int64_t d, int32_t heads, float* kat_scratch,
                            float* score_scratch);

}  // namespace goalex::tensor

#endif  // GOALEX_TENSOR_PACKED_H_
