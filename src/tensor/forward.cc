#include "tensor/forward.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/kernels.h"
#include "tensor/mathfn.h"

namespace goalex::tensor {
namespace {

/// C[m, n] = A[m, k] * B[k, n] with each output accumulated in registers
/// over k. The per-output fmaf sequence (strict k order, single rounding
/// per step, start from 0) is exactly the one kernels.cc Gemm performs, so
/// results are bit-identical — minus the store/reload latency chain that
/// bounds the memory-accumulating kernel on small n (attention head dims).
void GemmRegAcc(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    int64_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      const float* b_base = b + j0;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int64_t l = 0; l < k; ++l) {
        const __m256 av = _mm256_set1_ps(a_row[l]);
        const float* b_row = b_base + l * n;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b_row + 8), acc1);
      }
      _mm256_storeu_ps(c_row + j0, acc0);
      _mm256_storeu_ps(c_row + j0 + 8, acc1);
    }
    for (; j0 + 8 <= n; j0 += 8) {
      const float* b_base = b + j0;
      __m256 acc = _mm256_setzero_ps();
      for (int64_t l = 0; l < k; ++l) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(a_row[l]),
                              _mm256_loadu_ps(b_base + l * n), acc);
      }
      _mm256_storeu_ps(c_row + j0, acc);
    }
    for (; j0 < n; ++j0) {
      float acc = 0.0f;
      for (int64_t l = 0; l < k; ++l) {
        acc = std::fmaf(a_row[l], b[l * n + j0], acc);
      }
      c_row[j0] = acc;
    }
  }
#else
  Gemm(a, b, c, m, k, n, /*accumulate=*/false);
#endif
}

#if defined(GOALEX_SIMD_LANES)

/// Register tile of the linear kernels: kRowTile rows × 32 columns, i.e.
/// 2 rows × 4 vectors at 8 lanes and 4 rows × 2 vectors at 16 — eight
/// accumulators either way, so every weight-vector load feeds kRowTile
/// fused multiply-adds.
constexpr int kColVecs = 32 / simd::kLanes;
constexpr int kRowTile = simd::kLanes / 4;

/// One kR × (kC·kLanes) output tile of out = epi(x W + bias): kEpi 0 =
/// plain affine, 1 = tanh-GELU, 2 = residual add. `w`, `bias`, `res` and
/// `out` point at the tile's first column; when kTail (kC == 1) only the
/// lanes in `tail` are loaded and stored. Per output the k-products
/// accumulate in strict order from 0 with one fused multiply-add each and
/// the bias is added once after — the tape's Gemm + Axpy chain — and the
/// epilogue consumes that same post-bias float (GeluForward's chain, or
/// AddForward's residual + linear order).
template <int kEpi, int kR, int kC, bool kTail>
inline void LinearTile(const float* x, int64_t in, const float* w,
                       int64_t out_dim, const float* bias, const float* res,
                       float* out, simd::Mask tail) {
  using namespace simd;
  Vec acc[kR][kC];
  for (int r = 0; r < kR; ++r) {
    for (int c = 0; c < kC; ++c) acc[r][c] = Zero();
  }
  for (int64_t l = 0; l < in; ++l) {
    const float* w_row = w + l * out_dim;
    Vec wv[kC];
    for (int c = 0; c < kC; ++c) wv[c] = LoadT<kTail>(w_row + c * kLanes, tail);
    for (int r = 0; r < kR; ++r) {
      const Vec xv = Set1(x[r * in + l]);
      for (int c = 0; c < kC; ++c) acc[r][c] = Fmadd(xv, wv[c], acc[r][c]);
    }
  }
  for (int c = 0; c < kC; ++c) {
    const Vec bv = LoadT<kTail>(bias + c * kLanes, tail);
    for (int r = 0; r < kR; ++r) {
      Vec v = Add(acc[r][c], bv);
      if constexpr (kEpi == 1) {
        v = Gelu(v);
      } else if constexpr (kEpi == 2) {
        v = Add(LoadT<kTail>(res + r * out_dim + c * kLanes, tail), v);
      }
      StoreT<kTail>(out + r * out_dim + c * kLanes, v, tail);
    }
  }
}

/// kR rows of the linear: 32-column tiles, then single vectors, then one
/// masked vector for the out_dim % kLanes remainder.
template <int kEpi, int kR>
void LinearRows(const float* x, const float* w, const float* bias,
                float* out, int64_t in, int64_t out_dim,
                const float* residual) {
  simd::ForEachColumnTile<kColVecs>(
      out_dim, [&](int64_t j0, auto cols, auto tail, simd::Mask mask) {
        LinearTile<kEpi, kR, cols, tail>(x, in, w + j0, out_dim, bias + j0,
                                         residual + j0, out + j0, mask);
      });
}

template <int kEpi>
void LinearFusedEpi(const float* x, const float* w, const float* bias,
                    float* out, int64_t m, int64_t in, int64_t out_dim,
                    const float* residual) {
  // LinearTile reads `res` only in the residual epilogue; pointing it at
  // `out` otherwise keeps the tile offsets off a null pointer.
  const float* res = kEpi == 2 ? residual : out;
  int64_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    LinearRows<kEpi, kRowTile>(x + i * in, w, bias, out + i * out_dim, in,
                               out_dim, res + i * out_dim);
  }
  simd::WithRowCount<kRowTile - 1>(m - i, [&](auto rows) {
    LinearRows<kEpi, decltype(rows)::value>(x + i * in, w, bias,
                                            out + i * out_dim, in, out_dim,
                                            res + i * out_dim);
  });
}

#endif  // GOALEX_SIMD_LANES

}  // namespace

void AddForward(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void LinearForward(const float* x, const float* w, const float* bias,
                   float* out, int64_t m, int64_t in, int64_t out_dim) {
  // Register-blocked GEMM with fused bias. Bit-compatibility with the
  // tape's MatMul+AddBias (Gemm then Axpy) rests on two invariants that
  // this blocking preserves:
  //   - each output accumulates its k-products in the same strict k order,
  //     one fused multiply-add (fmaf / vfmadd lane, single rounding) per
  //     step, starting from 0; blocking only reorders across independent
  //     outputs, never within one, and
  //   - the bias is added once, after the full accumulation (an exact
  //     match for Axpy's y += 1.0f * bias).
  // Keeping a j-block of accumulators in registers removes the per-k
  // store/reload of the output row that bounds the memory-accumulating
  // kernel — the engine's main single-thread win over the tape at these
  // matrix sizes. infer_parity_test pins the resulting bit-identity.
#if defined(GOALEX_SIMD_LANES)
  LinearFusedEpi<0>(x, w, bias, out, m, in, out_dim, nullptr);
#else
  // Portable fallback: the tape's exact composition.
  Gemm(x, w, out, m, in, out_dim, /*accumulate=*/false);
  for (int64_t i = 0; i < m; ++i) {
    Axpy(1.0f, bias, out + i * out_dim, out_dim);
  }
#endif
}

void LinearGeluForward(const float* x, const float* w, const float* bias,
                       float* out, int64_t m, int64_t in, int64_t out_dim) {
#if defined(GOALEX_SIMD_LANES)
  LinearFusedEpi<1>(x, w, bias, out, m, in, out_dim, nullptr);
#else
  // Portable fallback: the unfused composition it is defined against.
  LinearForward(x, w, bias, out, m, in, out_dim);
  GeluForward(out, out, m * out_dim);
#endif
}

void LinearResidualForward(const float* x, const float* w, const float* bias,
                           const float* residual, float* out, int64_t m,
                           int64_t in, int64_t out_dim) {
#if defined(GOALEX_SIMD_LANES)
  LinearFusedEpi<2>(x, w, bias, out, m, in, out_dim, residual);
#else
  LinearForward(x, w, bias, out, m, in, out_dim);
  AddForward(residual, out, out, m * out_dim);
#endif
}

void GeluForward(const float* x, float* out, int64_t n) {
  // Vectorized tanh-approximation GELU; the remainder is a masked vector.
  // Every lane reproduces the scalar arithmetic exactly (see mathfn.h), and
  // the backward pass (tensor/ops.cc Gelu) evaluates the same
  // GeluTanhArg/FastTanhf pair.
#if defined(GOALEX_SIMD_LANES)
  using namespace simd;
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) Store(out + i, Gelu(Load(x + i)));
  if (i < n) {
    const Mask m = FirstN(n - i);
    Store(out + i, Gelu(Load(x + i, m)), m);
  }
#else
  for (int64_t i = 0; i < n; ++i) {
    float v = x[i];
    float t = FastTanhf(GeluTanhArg(v));
    out[i] = (0.5f * v) * (1.0f + t);
  }
#endif
}

void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float* out, int64_t m, int64_t n, float eps,
                      float* xhat, float* inv_std) {
  for (int64_t i = 0; i < m; ++i) {
    const float* row = x + i * n;
    double mean = 0.0;
    for (int64_t j = 0; j < n; ++j) mean += row[j];
    mean /= n;
    double var = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      double d = row[j] - mean;
      var += d * d;
    }
    var /= n;
    float inv = static_cast<float>(1.0 / std::sqrt(var + eps));
    if (inv_std != nullptr) inv_std[i] = inv;
    for (int64_t j = 0; j < n; ++j) {
      float h = (row[j] - static_cast<float>(mean)) * inv;
      if (xhat != nullptr) xhat[i * n + j] = h;
      out[i * n + j] = gamma[j] * h + beta[j];
    }
  }
}

void AttentionForward(const float* q, const float* k, const float* v,
                      float* out, int64_t t, int64_t d, int32_t heads,
                      float* probs, AttentionScratch& scratch) {
  GOALEX_CHECK_GT(heads, 0);
  GOALEX_CHECK_MSG(d % heads == 0, "d_model " << d << " not divisible by "
                                              << heads << " heads");
  int64_t dh = d / heads;
  float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  scratch.Resize(t, dh);
  float* qa = scratch.qa.data();
  float* ka = scratch.ka.data();
  float* va = scratch.va.data();
  float* oa = scratch.oa.data();
  float* kat = scratch.kat.data();
  float* scores = scratch.scores.data();

  auto slice_head = [t, d, dh](const float* src, int32_t head, float* dst) {
    for (int64_t i = 0; i < t; ++i) {
      const float* row = src + i * d + head * dh;
      std::copy(row, row + dh, dst + i * dh);
    }
  };

  for (int32_t a = 0; a < heads; ++a) {
    slice_head(q, a, qa);
    slice_head(k, a, ka);
    slice_head(v, a, va);
    // S = scale * Qa * Ka^T  [t, t]. Transposing Ka once turns the score
    // matrix into a plain row-major GEMM whose inner loop streams over
    // contiguous score rows — vectorizable, unlike the latency-chained
    // serial dot products of GemmTransB. Per output the l-accumulation
    // order is unchanged; Gemm pins each step's rounding with fmaf.
    for (int64_t i = 0; i < t; ++i) {
      for (int64_t l = 0; l < dh; ++l) kat[l * t + i] = ka[i * dh + l];
    }
    GemmRegAcc(qa, kat, scores, t, dh, t);
    for (int64_t i = 0; i < t * t; ++i) scores[i] *= scale;
    // P = row-softmax(S), written to the caller's capture buffer when the
    // tape needs it for backward, else to scratch.
    float* p = probs != nullptr ? probs + a * t * t : scores;
    for (int64_t i = 0; i < t; ++i) {
      SoftmaxRow(scores + i * t, p + i * t, t);
    }
    // Oa = P * Va  [t, dh]
    GemmRegAcc(p, va, oa, t, t, dh);
    for (int64_t i = 0; i < t; ++i) {
      std::copy(oa + i * dh, oa + (i + 1) * dh, out + i * d + a * dh);
    }
  }
}

void EmbedSumForward(const float* token_table, int64_t vocab,
                     const float* pos_table, const int32_t* ids, int64_t t,
                     int64_t d, float* out) {
  for (int64_t i = 0; i < t; ++i) {
    GOALEX_CHECK_MSG(ids[i] >= 0 && ids[i] < vocab,
                     "embedding id " << ids[i] << " out of range " << vocab);
    const float* tok = token_table + ids[i] * d;
    const float* pos = pos_table + i * d;
    AddForward(tok, pos, out + i * d, d);
  }
}

void MeanRowsForward(const float* x, float* out, int64_t m, int64_t n) {
  GOALEX_CHECK_GT(m, 0);
  std::fill(out, out + n, 0.0f);
  for (int64_t i = 0; i < m; ++i) Axpy(1.0f, x + i * n, out, n);
  float inv = 1.0f / static_cast<float>(m);
  for (int64_t j = 0; j < n; ++j) out[j] *= inv;
}

int32_t ArgmaxRow(const float* row, int64_t n) {
  int32_t best = 0;
  for (int64_t j = 1; j < n; ++j) {
    if (row[j] > row[best]) best = static_cast<int32_t>(j);
  }
  return best;
}

}  // namespace goalex::tensor
