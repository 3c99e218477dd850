#ifndef GOALEX_TENSOR_SIMD_H_
#define GOALEX_TENSOR_SIMD_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

/// Lane-width shim for the inference kernels (DESIGN.md §14.2). Each hot
/// kernel is written once against the names below and compiles to 16 float
/// lanes when the build targets AVX-512 (F + BW, i.e. every AVX-512 core
/// outside Xeon Phi) and to 8 lanes under AVX2 + FMA. The width is fixed at
/// compile time by the target flags (`-march=native` by default); there is
/// no runtime dispatch. Without either, GOALEX_SIMD_LANES stays undefined
/// and the kernels take their portable scalar paths.
///
/// Every wrapper is one IEEE-defined lane operation (add, mul, fma, div,
/// sqrt, floor, min/max, conversions), so a lane computes the same bits at
/// either width. Remainders use masked loads and stores (`FirstN`); masked
/// lanes read zero (or a caller-chosen fill) and are never stored, so there
/// are no scalar tail loops. Arithmetic stays unmasked on purpose: it keeps
/// the vector expressions shaped like their scalar references, which the
/// compiler contracts (a*b + c -> fma) the same way on both sides.
#if defined(__AVX512F__) && defined(__AVX512BW__)
#define GOALEX_SIMD_LANES 16
#elif defined(__AVX2__) && defined(__FMA__)
#define GOALEX_SIMD_LANES 8
#endif

namespace goalex::tensor {
/// Float lanes the inference kernels were compiled for: 16, 8, or 1 for the
/// portable scalar paths. Benchmarks and tests print it beside their
/// results.
#if defined(GOALEX_SIMD_LANES)
inline constexpr int kSimdLanes = GOALEX_SIMD_LANES;
#else
inline constexpr int kSimdLanes = 1;
#endif
}  // namespace goalex::tensor

#if defined(GOALEX_SIMD_LANES)

namespace goalex::tensor::simd {

/// Float lanes per vector; double vectors (VecD) hold half as many.
inline constexpr int kLanes = GOALEX_SIMD_LANES;
inline constexpr int kLanesD = kLanes / 2;

namespace detail {
inline float ReduceMin8(__m256 a) {
  __m128 m = _mm_min_ps(_mm256_castps256_ps128(a), _mm256_extractf128_ps(a, 1));
  m = _mm_min_ps(m, _mm_movehl_ps(m, m));
  m = _mm_min_ss(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}
inline float ReduceMax8(__m256 a) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(a), _mm256_extractf128_ps(a, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_movehdup_ps(m));
  return _mm_cvtss_f32(m);
}
}  // namespace detail

#if GOALEX_SIMD_LANES == 16

using Vec = __m512;    ///< kLanes floats.
using VecI = __m512i;  ///< kLanes int32 (or 4·kLanes bytes).
using VecD = __m512d;  ///< kLanesD doubles.
using Mask = __mmask16;

// GCC 12's unmasked AVX-512 intrinsics pass an "undefined" vector as the
// merge source, which trips -Wmaybe-uninitialized once inlined; the
// zero-masking forms under an all-ones mask are the same instructions
// without it.
inline constexpr __mmask16 kAll = 0xFFFF;
inline constexpr __mmask8 kAllD = 0xFF;

namespace detail {
inline __m256 Low8(__m512 a) {
  return _mm256_castpd_ps(
      _mm512_maskz_extractf64x4_pd(0xF, _mm512_castps_pd(a), 0));
}
inline __m256 High8(__m512 a) {
  return _mm256_castpd_ps(
      _mm512_maskz_extractf64x4_pd(0xF, _mm512_castps_pd(a), 1));
}
}  // namespace detail

/// Lanes [0, n) set; n >= kLanes sets all of them.
inline Mask FirstN(int64_t n) {
  return n >= kLanes ? kAll : static_cast<Mask>((1u << n) - 1u);
}

inline Vec Zero() { return _mm512_setzero_ps(); }
inline Vec Set1(float v) { return _mm512_set1_ps(v); }
inline Vec Load(const float* p) { return _mm512_loadu_ps(p); }
inline Vec Load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
inline void Store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
inline void Store(float* p, Vec v, Mask m) { _mm512_mask_storeu_ps(p, m, v); }
/// a where m is set, b elsewhere.
inline Vec Select(Mask m, Vec a, Vec b) {
  return _mm512_mask_blend_ps(m, b, a);
}

inline Vec Add(Vec a, Vec b) { return _mm512_add_ps(a, b); }
inline Vec Sub(Vec a, Vec b) { return _mm512_sub_ps(a, b); }
inline Vec Mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
inline Vec Div(Vec a, Vec b) { return _mm512_div_ps(a, b); }
/// a*b + c and -(a*b) + c, single rounding.
inline Vec Fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
inline Vec Fnmadd(Vec a, Vec b, Vec c) { return _mm512_fnmadd_ps(a, b, c); }
inline Vec Min(Vec a, Vec b) { return _mm512_maskz_min_ps(kAll, a, b); }
inline Vec Max(Vec a, Vec b) { return _mm512_maskz_max_ps(kAll, a, b); }
inline Vec Floor(Vec a) {
  return _mm512_maskz_roundscale_ps(kAll, a, _MM_FROUND_FLOOR);
}
/// Horizontal min/max (exact, so the reduction order is irrelevant).
inline float ReduceMin(Vec a) {
  return detail::ReduceMin8(_mm256_min_ps(detail::Low8(a), detail::High8(a)));
}
inline float ReduceMax(Vec a) {
  return detail::ReduceMax8(_mm256_max_ps(detail::Low8(a), detail::High8(a)));
}

/// |a| and a's sign bit alone (the rest zero); Or combines bit patterns.
inline Vec Abs(Vec a) {
  return _mm512_castsi512_ps(_mm512_and_epi32(_mm512_castps_si512(a),
                                              _mm512_set1_epi32(0x7FFFFFFF)));
}
inline Vec SignBit(Vec a) {
  return _mm512_castsi512_ps(
      _mm512_and_epi32(_mm512_castps_si512(a),
                       _mm512_set1_epi32(static_cast<int32_t>(0x80000000u))));
}
inline Vec Or(Vec a, Vec b) {
  return _mm512_castsi512_ps(
      _mm512_or_epi32(_mm512_castps_si512(a), _mm512_castps_si512(b)));
}

inline VecI ZeroI() { return _mm512_setzero_si512(); }
inline VecI Set1I(int32_t v) { return _mm512_set1_epi32(v); }
inline VecI LoadI(const void* p) { return _mm512_loadu_si512(p); }
/// Masked 32-bit lanes (four bytes per lane), zero elsewhere.
inline VecI LoadI(const void* p, Mask m) {
  return _mm512_maskz_loadu_epi32(m, p);
}
inline VecI AddI(VecI a, VecI b) { return _mm512_add_epi32(a, b); }
template <int kBits>
inline VecI ShiftLeftI(VecI a) {
  return _mm512_maskz_slli_epi32(kAll, a, kBits);
}
inline Vec AsFloat(VecI a) { return _mm512_castsi512_ps(a); }
/// Value conversions: truncating, round-to-nearest-even (the current
/// rounding mode, like lrintf), and int32 -> float.
inline VecI TruncToI(Vec a) { return _mm512_maskz_cvttps_epi32(kAll, a); }
inline VecI RoundToI(Vec a) { return _mm512_maskz_cvtps_epi32(kAll, a); }
inline Vec ToFloat(VecI a) { return _mm512_maskz_cvtepi32_ps(kAll, a); }
/// Stores the low byte of every lane: kLanes bytes.
inline void StoreBytes(uint8_t* p, VecI a) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                   _mm512_maskz_cvtepi32_epi8(kAll, a));
}
/// acc + per-lane sum of four u8 x s8 products. Exact: with u8 <= 127 and
/// |s8| <= 127 the maddubs pair sums stay inside int16.
inline VecI DotU8I8(VecI acc, VecI u8, VecI s8) {
#if defined(__AVX512VNNI__)
  return _mm512_dpbusd_epi32(acc, u8, s8);
#else
  return _mm512_add_epi32(
      acc, _mm512_madd_epi16(_mm512_maddubs_epi16(u8, s8),
                             _mm512_set1_epi16(1)));
#endif
}
inline VecD ZeroD() { return _mm512_setzero_pd(); }
inline VecD Set1D(double v) { return _mm512_set1_pd(v); }
inline void StoreD(double* p, VecD v) { _mm512_storeu_pd(p, v); }
inline VecD AddD(VecD a, VecD b) { return _mm512_add_pd(a, b); }
inline VecD SubD(VecD a, VecD b) { return _mm512_sub_pd(a, b); }
inline VecD MulD(VecD a, VecD b) { return _mm512_mul_pd(a, b); }
inline VecD DivD(VecD a, VecD b) { return _mm512_div_pd(a, b); }
inline VecD SqrtD(VecD a) { return _mm512_maskz_sqrt_pd(kAllD, a); }

/// Half vectors: kLanesD floats, the width of one double vector. They
/// carry the row-parallel double chains (layer norm statistics, softmax
/// normalizers) through in-register transposes.
using Half = __m256;
inline Half LoadHalf(const float* p) { return _mm256_loadu_ps(p); }
/// The first n floats (n < kLanesD), zero elsewhere.
inline Half LoadHalf(const float* p, int64_t n) {
  return _mm256_maskload_ps(
      p, _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int32_t>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
}
inline void StoreHalf(float* p, Half v) { _mm256_storeu_ps(p, v); }
inline VecD WidenD(Half h) { return _mm512_maskz_cvtps_pd(kAllD, h); }
/// In-place transpose of the 8 × 8 block r[0..8).
inline void TransposeHalf(Half* r) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

#else  // GOALEX_SIMD_LANES == 8

using Vec = __m256;
using VecI = __m256i;
using VecD = __m256d;
using Mask = __m256i;  ///< All-ones 32-bit lanes are set.

inline Mask FirstN(int64_t n) {
  const int32_t k = n >= kLanes ? kLanes : static_cast<int32_t>(n);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(k),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

inline Vec Zero() { return _mm256_setzero_ps(); }
inline Vec Set1(float v) { return _mm256_set1_ps(v); }
inline Vec Load(const float* p) { return _mm256_loadu_ps(p); }
inline Vec Load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
inline void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
inline void Store(float* p, Vec v, Mask m) { _mm256_maskstore_ps(p, m, v); }
inline Vec Select(Mask m, Vec a, Vec b) {
  return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
}

inline Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
inline Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
inline Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
inline Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
inline Vec Fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
inline Vec Fnmadd(Vec a, Vec b, Vec c) { return _mm256_fnmadd_ps(a, b, c); }
inline Vec Min(Vec a, Vec b) { return _mm256_min_ps(a, b); }
inline Vec Max(Vec a, Vec b) { return _mm256_max_ps(a, b); }
inline Vec Floor(Vec a) { return _mm256_floor_ps(a); }
inline float ReduceMin(Vec a) { return detail::ReduceMin8(a); }
inline float ReduceMax(Vec a) { return detail::ReduceMax8(a); }

inline Vec Abs(Vec a) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a); }
inline Vec SignBit(Vec a) { return _mm256_and_ps(_mm256_set1_ps(-0.0f), a); }
inline Vec Or(Vec a, Vec b) { return _mm256_or_ps(a, b); }

inline VecI ZeroI() { return _mm256_setzero_si256(); }
inline VecI Set1I(int32_t v) { return _mm256_set1_epi32(v); }
inline VecI LoadI(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}
inline VecI LoadI(const void* p, Mask m) {
  return _mm256_maskload_epi32(static_cast<const int*>(p), m);
}
inline VecI AddI(VecI a, VecI b) { return _mm256_add_epi32(a, b); }
template <int kBits>
inline VecI ShiftLeftI(VecI a) {
  return _mm256_slli_epi32(a, kBits);
}
inline Vec AsFloat(VecI a) { return _mm256_castsi256_ps(a); }
inline VecI TruncToI(Vec a) { return _mm256_cvttps_epi32(a); }
inline VecI RoundToI(Vec a) { return _mm256_cvtps_epi32(a); }
inline Vec ToFloat(VecI a) { return _mm256_cvtepi32_ps(a); }
inline void StoreBytes(uint8_t* p, VecI a) {
  // Lanes hold 0..127 codes, so the saturating packs are plain narrowing.
  const __m128i w = _mm_packus_epi32(_mm256_castsi256_si128(a),
                                     _mm256_extracti128_si256(a, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_packus_epi16(w, w));
}
inline VecI DotU8I8(VecI acc, VecI u8, VecI s8) {
  return _mm256_add_epi32(
      acc, _mm256_madd_epi16(_mm256_maddubs_epi16(u8, s8),
                             _mm256_set1_epi16(1)));
}
inline VecD ZeroD() { return _mm256_setzero_pd(); }
inline VecD Set1D(double v) { return _mm256_set1_pd(v); }
inline void StoreD(double* p, VecD v) { _mm256_storeu_pd(p, v); }
inline VecD AddD(VecD a, VecD b) { return _mm256_add_pd(a, b); }
inline VecD SubD(VecD a, VecD b) { return _mm256_sub_pd(a, b); }
inline VecD MulD(VecD a, VecD b) { return _mm256_mul_pd(a, b); }
inline VecD DivD(VecD a, VecD b) { return _mm256_div_pd(a, b); }
inline VecD SqrtD(VecD a) { return _mm256_sqrt_pd(a); }

using Half = __m128;
inline Half LoadHalf(const float* p) { return _mm_loadu_ps(p); }
inline Half LoadHalf(const float* p, int64_t n) {
  return _mm_maskload_ps(
      p, _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int32_t>(n)),
                         _mm_setr_epi32(0, 1, 2, 3)));
}
inline void StoreHalf(float* p, Half v) { _mm_storeu_ps(p, v); }
inline VecD WidenD(Half h) { return _mm256_cvtps_pd(h); }
inline void TransposeHalf(Half* r) {
  _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]);
}

#endif  // GOALEX_SIMD_LANES

/// Load/Store that take the mask only when kTail: kernels instantiate one
/// tile body for whole vectors and for the masked remainder.
template <bool kTail>
inline Vec LoadT(const float* p, Mask m) {
  if constexpr (kTail) {
    return Load(p, m);
  } else {
    (void)m;
    return Load(p);
  }
}
template <bool kTail>
inline void StoreT(float* p, Vec v, Mask m) {
  if constexpr (kTail) {
    Store(p, v, m);
  } else {
    (void)m;
    Store(p, v);
  }
}
template <bool kTail>
inline VecI LoadIT(const void* p, Mask m) {
  if constexpr (kTail) {
    return LoadI(p, m);
  } else {
    (void)m;
    return LoadI(p);
  }
}

/// Row pointers for a group of up to kLanesD rows `stride` floats apart;
/// slots past `count` repeat the last row (a padded lane group whose
/// results the caller drops).
inline void PadRows(const float* base, int64_t stride, int64_t count,
                    const float** rows) {
  for (int z = 0; z < kLanesD; ++z) {
    rows[z] = base + (z < count ? z : count - 1) * stride;
  }
}

/// cols[c] lane z = rows[z][j + c] for c < count (count <= kLanesD): a
/// kLanesD × kLanesD block transposed in registers. Columns past count
/// read as zero, or, when kPaddedRows (rows readable through the next
/// multiple of kLanesD), as whatever the padding holds.
template <bool kPaddedRows = false>
inline void LoadColumns(const float* const* rows, int64_t j, int64_t count,
                        Half* cols) {
  for (int z = 0; z < kLanesD; ++z) {
    cols[z] = kPaddedRows || count >= kLanesD ? LoadHalf(rows[z] + j)
                                              : LoadHalf(rows[z] + j, count);
  }
  TransposeHalf(cols);
}

/// Calls f(column) for j = 0, 1, ..., n-1 in order, where lane z of the
/// column is rows[z][j] widened to double — the row-parallel form of a
/// serial per-row loop over j.
template <bool kPaddedRows = false, typename F>
inline void ForEachColumnD(const float* const* rows, int64_t n, F&& f) {
  Half cols[kLanesD];
  for (int64_t j = 0; j < n; j += kLanesD) {
    const int64_t count = n - j < kLanesD ? n - j : kLanesD;
    LoadColumns<kPaddedRows>(rows, j, count, cols);
    for (int64_t c = 0; c < count; ++c) f(WidenD(cols[c]));
  }
}

/// Walks n columns as kBlockVecs-vector blocks, then single vectors, then
/// one masked vector for the n % kLanes remainder, calling
/// f(j0, std::integral_constant<int, vectors>{}, std::bool_constant<tail>{},
/// mask) for each; kernels instantiate their tile body on the two
/// constants.
template <int kBlockVecs, typename F>
inline void ForEachColumnTile(int64_t n, F&& f) {
  const Mask all = FirstN(kLanes);
  int64_t j0 = 0;
  for (; j0 + kBlockVecs * kLanes <= n; j0 += kBlockVecs * kLanes) {
    f(j0, std::integral_constant<int, kBlockVecs>{}, std::false_type{}, all);
  }
  if constexpr (kBlockVecs > 1) {
    for (; j0 + kLanes <= n; j0 += kLanes) {
      f(j0, std::integral_constant<int, 1>{}, std::false_type{}, all);
    }
  }
  if (j0 < n) {
    f(j0, std::integral_constant<int, 1>{}, std::true_type{}, FirstN(n - j0));
  }
}

/// Calls f(std::integral_constant<int, rows>{}) for rows in [1, kMax]: the
/// leftover rows of a row-tiled loop run as one tile of exactly that many
/// rows instead of row by row.
template <int kMax, typename F>
inline void WithRowCount(int64_t rows, F&& f) {
  if constexpr (kMax > 0) {
    if (rows == kMax) {
      f(std::integral_constant<int, kMax>{});
    } else {
      WithRowCount<kMax - 1>(rows, f);
    }
  }
}

/// Four bytes at p as one int32 (unaligned, aliasing-safe).
inline int32_t LoadWord(const uint8_t* p) {
  int32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace goalex::tensor::simd

#endif  // GOALEX_SIMD_LANES

#endif  // GOALEX_TENSOR_SIMD_H_
