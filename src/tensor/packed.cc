#include "tensor/packed.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "tensor/forward.h"
#include "tensor/kernels.h"
#include "tensor/mathfn.h"

namespace goalex::tensor {
namespace {

#if defined(GOALEX_SIMD_LANES)

/// Query rows per register tile (2 at 8 lanes, 4 at 16); each key or value
/// vector load feeds that many fused multiply-adds.
constexpr int kRowTile = simd::kLanes / 4;

/// kR query rows × kC key-column vectors of scores: c[r, j] = scale *
/// (q_r · kat[:, j]), with the running per-row max `mx` and the tile-wide
/// min `mn` folded in. Rows of `kat` and `c` are padded to whole vectors,
/// so loads and stores are unmasked; padding columns hold the last
/// token's key, so their scores repeat column t-1's bits and cannot move
/// the max or min. Per output the dh-products accumulate in strict order
/// from 0 with one fused multiply-add each and the scale is applied once
/// at store — the same single rounding AttentionForward's GemmRegAcc +
/// scale pass performs, so scores (and everything downstream) stay
/// bit-identical.
template <int kR, int kC>
inline void ScoreTile(const float* q, int64_t ld, const float* kat,
                      int64_t tp, int64_t dh, simd::Vec scale, float* c,
                      simd::Vec* mx, simd::Vec& mn) {
  using namespace simd;
  Vec acc[kR][kC];
  for (int r = 0; r < kR; ++r) {
    for (int z = 0; z < kC; ++z) acc[r][z] = Zero();
  }
  for (int64_t l = 0; l < dh; ++l) {
    const float* k_row = kat + l * tp;
    Vec kv[kC];
    for (int z = 0; z < kC; ++z) kv[z] = Load(k_row + z * kLanes);
    for (int r = 0; r < kR; ++r) {
      const Vec qv = Set1(q[r * ld + l]);
      for (int z = 0; z < kC; ++z) acc[r][z] = Fmadd(qv, kv[z], acc[r][z]);
    }
  }
  for (int r = 0; r < kR; ++r) {
    for (int z = 0; z < kC; ++z) {
      const Vec a = Mul(acc[r][z], scale);
      Store(c + r * tp + z * kLanes, a);
      mx[r] = Max(mx[r], a);
      mn = Min(mn, a);
    }
  }
}

/// kR rows of scores across the t key columns (through the padding):
/// two-vector blocks, then single vectors.
template <int kR>
void ScoreRows(const float* q, int64_t ld, const float* kat, int64_t t,
               int64_t tp, int64_t dh, simd::Vec scale, float* c,
               float* row_max, simd::Vec& mn) {
  using namespace simd;
  Vec mx[kR];
  for (int r = 0; r < kR; ++r) {
    mx[r] = Set1(-std::numeric_limits<float>::infinity());
  }
  int64_t j0 = 0;
  for (; j0 + 2 * kLanes <= t; j0 += 2 * kLanes) {
    ScoreTile<kR, 2>(q, ld, kat + j0, tp, dh, scale, c + j0, mx, mn);
  }
  for (; j0 < t; j0 += kLanes) {
    ScoreTile<kR, 1>(q, ld, kat + j0, tp, dh, scale, c + j0, mx, mn);
  }
  for (int r = 0; r < kR; ++r) row_max[r] = ReduceMax(mx[r]);
}

/// Scores for one tile of r query rows: c[r, tp], the per-row maxima that
/// seed the streaming softmax, and the tile min that feeds the caller's
/// masked-score guard.
void ScoreMaxTile(const float* q, int64_t ld, const float* kat, float* c,
                  int64_t t, int64_t tp, int64_t r, int64_t dh, float scale,
                  float* row_max, float* tile_min) {
  using namespace simd;
  const Vec sv = Set1(scale);
  Vec mn = Set1(std::numeric_limits<float>::infinity());
  int64_t i = 0;
  for (; i + kRowTile <= r; i += kRowTile) {
    ScoreRows<kRowTile>(q + i * ld, ld, kat, t, tp, dh, sv, c + i * tp,
                        row_max + i, mn);
  }
  WithRowCount<kRowTile - 1>(r - i, [&](auto rows) {
    ScoreRows<decltype(rows)::value>(q + i * ld, ld, kat, t, tp, dh, sv,
                                     c + i * tp, row_max + i, mn);
  });
  *tile_min = ReduceMin(mn);
}

/// exp(rows - row_max) in place, then the per-row normalizer as a serial
/// double sum over the t real columns — SoftmaxRow's exact chains. The
/// sums run kLanesD rows per double vector (serial j order within each
/// lane, columns transposed in registers); a short last group is padded
/// with copies of its last row whose sums are dropped.
void ExpSumTile(float* rows, int64_t t, int64_t tp, int64_t nrows,
                const float* mx, double* sums) {
  using namespace simd;
  for (int64_t r = 0; r < nrows; ++r) {
    float* rr = rows + r * tp;
    const Vec shift = Set1(mx[r]);
    for (int64_t j = 0; j < t; j += kLanes) {
      Store(rr + j, FastExp(Sub(Load(rr + j), shift)));
    }
  }
  for (int64_t r = 0; r < nrows; r += kLanesD) {
    const int64_t group = std::min<int64_t>(kLanesD, nrows - r);
    const float* rp[kLanesD];
    PadRows(rows + r * tp, tp, group, rp);
    VecD sum = ZeroD();
    ForEachColumnD</*kPaddedRows=*/true>(
        rp, t, [&](VecD col) { sum = AddD(sum, col); });
    double lane[kLanesD];
    StoreD(lane, sum);
    std::copy(lane, lane + group, sums + r);
  }
}

/// kR rows × kC vectors of probs × V with the 1/sum normalizer folded into
/// the broadcast: Set1(e[l] * inv) is the same single-rounded float
/// SoftmaxRow stores before the reference's GEMM, so the fmaf chains stay
/// bit-identical.
template <int kR, int kC, bool kTail>
inline void ProbVTileBlock(const float* e, int64_t t, int64_t tp,
                           const float* inv, const float* v, int64_t ldv,
                           float* out, int64_t ldo, simd::Mask tail) {
  using namespace simd;
  Vec acc[kR][kC];
  for (int r = 0; r < kR; ++r) {
    for (int z = 0; z < kC; ++z) acc[r][z] = Zero();
  }
  for (int64_t l = 0; l < t; ++l) {
    const float* v_row = v + l * ldv;
    Vec vv[kC];
    for (int z = 0; z < kC; ++z) vv[z] = LoadT<kTail>(v_row + z * kLanes, tail);
    for (int r = 0; r < kR; ++r) {
      const Vec pv = Set1(e[r * tp + l] * inv[r]);
      for (int z = 0; z < kC; ++z) acc[r][z] = Fmadd(pv, vv[z], acc[r][z]);
    }
  }
  for (int r = 0; r < kR; ++r) {
    for (int z = 0; z < kC; ++z) {
      StoreT<kTail>(out + r * ldo + z * kLanes, acc[r][z], tail);
    }
  }
}

template <int kR>
void ProbVRows(const float* e, int64_t t, int64_t tp, const float* inv,
               const float* v, int64_t ldv, float* out, int64_t ldo,
               int64_t dh) {
  simd::ForEachColumnTile<2>(
      dh, [&](int64_t j0, auto cols, auto tail, simd::Mask mask) {
        ProbVTileBlock<kR, cols, tail>(e, t, tp, inv, v + j0, ldv, out + j0,
                                       ldo, mask);
      });
}

/// probs × V for m query rows of the tile (rows of `e` tp floats apart).
void ProbVTile(const float* e, int64_t t, int64_t tp, const float* inv,
               const float* v, int64_t ldv, float* out, int64_t ldo,
               int64_t m, int64_t dh) {
  int64_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    ProbVRows<kRowTile>(e + i * tp, t, tp, inv + i, v, ldv, out + i * ldo,
                        ldo, dh);
  }
  simd::WithRowCount<kRowTile - 1>(m - i, [&](auto rows) {
    ProbVRows<decltype(rows)::value>(e + i * tp, t, tp, inv + i, v, ldv,
                                     out + i * ldo, ldo, dh);
  });
}

/// kat[l, j] = kh[j, l] for one head (dh rows of tp floats),
/// kLanesD × kLanesD blocks at a time transposed in registers. Padding
/// columns j >= t repeat the last token, so their scores repeat column
/// t-1's (see ScoreTile).
void TransposeHead(const float* kh, int64_t ld, int64_t t, int64_t tp,
                   int64_t dh, float* kat) {
  using namespace simd;
  for (int64_t j = 0; j < tp; j += kLanesD) {
    const float* rows[kLanesD];
    if (j < t) {
      PadRows(kh + j * ld, ld, std::min<int64_t>(kLanesD, t - j), rows);
    } else {
      PadRows(kh + (t - 1) * ld, ld, 1, rows);
    }
    for (int64_t l = 0; l < dh; l += kLanesD) {
      const int64_t count = std::min<int64_t>(kLanesD, dh - l);
      Half cols[kLanesD];
      LoadColumns(rows, l, count, cols);
      for (int64_t c = 0; c < count; ++c) {
        StoreHalf(kat + (l + c) * tp + j, cols[c]);
      }
    }
  }
}

#endif  // GOALEX_SIMD_LANES

}  // namespace

void LayerNormPackedForward(const float* x, const float* gamma,
                            const float* beta, float* out, int64_t m,
                            int64_t n, float eps) {
#if defined(GOALEX_SIMD_LANES)
  using namespace simd;
  const VecD nd = Set1D(static_cast<double>(n));
  for (int64_t i = 0; i < m; i += kLanesD) {
    // kLanesD rows per double vector; a short last group is padded with
    // copies of its last row. Mean and variance in doubles, serial j order
    // per lane — each lane's chain is exactly the scalar LayerNormForward
    // computation.
    const int64_t group = std::min<int64_t>(kLanesD, m - i);
    const float* base = x + i * n;
    const float* rows[kLanesD];
    PadRows(base, n, group, rows);
    VecD mean = ZeroD();
    ForEachColumnD(rows, n, [&](VecD col) { mean = AddD(mean, col); });
    mean = DivD(mean, nd);
    VecD var = ZeroD();
    ForEachColumnD(rows, n, [&](VecD col) {
      const VecD dd = SubD(col, mean);
      var = AddD(var, MulD(dd, dd));
    });
    var = DivD(var, nd);
    const VecD invd = DivD(
        Set1D(1.0), SqrtD(AddD(var, Set1D(static_cast<double>(eps)))));
    double inv_a[kLanesD], mean_a[kLanesD];
    StoreD(inv_a, invd);
    StoreD(mean_a, mean);
    for (int64_t rr = 0; rr < group; ++rr) {
      const float* row = base + rr * n;
      float* orow = out + (i + rr) * n;
      const Vec invv = Set1(static_cast<float>(inv_a[rr]));
      const Vec mv = Set1(static_cast<float>(mean_a[rr]));
      int64_t j = 0;
      for (; j + kLanes <= n; j += kLanes) {
        const Vec h = Mul(Sub(Load(row + j), mv), invv);
        Store(orow + j, Fmadd(Load(gamma + j), h, Load(beta + j)));
      }
      if (j < n) {
        const Mask mk = FirstN(n - j);
        const Vec h = Mul(Sub(Load(row + j, mk), mv), invv);
        Store(orow + j, Fmadd(Load(gamma + j, mk), h, Load(beta + j, mk)), mk);
      }
    }
  }
#else
  LayerNormForward(x, gamma, beta, out, m, n, eps, nullptr, nullptr);
#endif
}

void AttentionPackedForward(const float* q, const float* k, const float* v,
                            float* out, const int64_t* offsets, int64_t nseq,
                            int64_t d, int32_t heads, float* kat_scratch,
                            float* score_scratch) {
  GOALEX_CHECK_GT(heads, 0);
  GOALEX_CHECK_MSG(d % heads == 0, "d_model " << d << " not divisible by "
                                              << heads << " heads");
#if defined(GOALEX_SIMD_LANES)
  const int64_t dh = d / heads;
  const int64_t ld = d;
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  constexpr int64_t R = kPackedAttentionRowBlock;
  for (int64_t s = 0; s < nseq; ++s) {
    const int64_t base = offsets[s];
    const int64_t t = offsets[s + 1] - offsets[s];
    if (t <= 0) continue;
    const int64_t tp = PackedAttentionStride(t);
    for (int32_t a = 0; a < heads; ++a) {
      // Heads are strided slices of the packed [t, d] activations; K is
      // transposed once per head so score tiles stream contiguous rows.
      const float* qh = q + base * ld + a * dh;
      const float* kh = k + base * ld + a * dh;
      const float* vh = v + base * ld + a * dh;
      TransposeHead(kh, ld, t, tp, dh, kat_scratch);
      float* oh = out + base * d + a * dh;
      float row_max[R];
      double row_sum[R];
      float row_inv[R];
      for (int64_t i0 = 0; i0 < t; i0 += R) {
        const int64_t r = std::min(R, t - i0);
        float tile_min;
        ScoreMaxTile(qh + i0 * ld, ld, kat_scratch, score_scratch, t, tp, r,
                     dh, scale, row_max, &tile_min);
        // The streaming path shifts by the true row max and folds 1/sum
        // into the probs×V broadcast. SoftmaxRow does the same — unless a
        // row holds masked (≤ kSoftmaxMask/2) or non-finite scores, where
        // it skips entries / degrades to uniform. Inference never masks,
        // so the guard exists only to keep the fallback exact: any
        // suspicious tile is handed to SoftmaxRow itself (inv = 1).
        bool plain = tile_min > kSoftmaxMask / 2;
        for (int64_t z = 0; z < r; ++z) {
          plain = plain && std::isfinite(row_max[z]);
        }
        if (!plain) {
          for (int64_t z = 0; z < r; ++z) {
            SoftmaxRow(score_scratch + z * tp, score_scratch + z * tp, t);
            row_inv[z] = 1.0f;
          }
        } else {
          ExpSumTile(score_scratch, t, tp, r, row_max, row_sum);
          for (int64_t z = 0; z < r; ++z) {
            row_inv[z] = static_cast<float>(1.0 / row_sum[z]);
          }
        }
        ProbVTile(score_scratch, t, tp, row_inv, vh, ld, oh + i0 * d, d, r,
                  dh);
      }
    }
  }
#else
  // Portable fallback: the per-example kernel over each sequence slice
  // (materializes the [t, t] scores it exists to avoid — correctness
  // reference only).
  (void)kat_scratch;
  (void)score_scratch;
  AttentionScratch scratch;
  for (int64_t s = 0; s < nseq; ++s) {
    const int64_t base = offsets[s];
    const int64_t t = offsets[s + 1] - offsets[s];
    if (t <= 0) continue;
    AttentionForward(q + base * d, k + base * d, v + base * d, out + base * d,
                     t, d, heads, /*probs=*/nullptr, scratch);
  }
#endif
}

}  // namespace goalex::tensor
