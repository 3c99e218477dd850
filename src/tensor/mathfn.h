#ifndef GOALEX_TENSOR_MATHFN_H_
#define GOALEX_TENSOR_MATHFN_H_

#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/simd.h"

namespace goalex::tensor {

/// Fast float transcendentals shared by every execution strategy (autograd
/// forward, autograd backward, and the graph-free inference engine). The
/// scalar and vector (simd.h, 8 or 16 lanes) variants perform the same
/// IEEE-defined operation sequence (fmaf <-> vfmadd lane, floor <-> round,
/// div <-> vdiv), so a value computed in a vector lane is bit-identical to
/// the scalar function — callers can mix them freely inside one array
/// without introducing lane-dependent results. Accuracy: ~2 ulp for Expf,
/// ~1e-7 absolute for Tanhf, which is orders of magnitude below both the
/// finite-difference tolerance of the gradient checks and any effect on
/// model accuracy.
///
/// Cephes-style range reduction: e^x = 2^n * e^r with n = round(x/ln 2),
/// r in [-ln2/2, ln2/2], and a degree-5 minimax polynomial for e^r.

namespace mathfn_detail {
constexpr float kExpHi = 88.3762626647949f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;
}  // namespace mathfn_detail

/// e^x for finite float x; clamps to the representable range (never
/// overflows to inf, never underflows below ~1.2e-38).
inline float FastExpf(float x) {
  using namespace mathfn_detail;
  x = x > kExpHi ? kExpHi : x;
  x = x < kExpLo ? kExpLo : x;
  float n = std::floor(std::fmaf(x, kLog2e, 0.5f));
  // r = x - n*ln2 in two steps for extra bits of ln2.
  float r = std::fmaf(-n, kLn2Hi, x);
  r = std::fmaf(-n, kLn2Lo, r);
  float y = kExpC0;
  y = std::fmaf(y, r, kExpC1);
  y = std::fmaf(y, r, kExpC2);
  y = std::fmaf(y, r, kExpC3);
  y = std::fmaf(y, r, kExpC4);
  y = std::fmaf(y, r, kExpC5);
  y = std::fmaf(y, r * r, r);
  y += 1.0f;
  // 2^n via exponent bits; n is integral in [-126, 128) after the clamp.
  uint32_t bits = static_cast<uint32_t>(static_cast<int32_t>(n) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return y * scale;
}

/// tanh(x) = sign(x) * (1 - t) / (1 + t) with t = e^(-2|x|); the exp
/// argument is always <= 0 so the computation never overflows, and 1 - t is
/// exact (Sterbenz) for t >= 0.5, keeping small-|x| results accurate.
inline float FastTanhf(float x) {
  float a = std::fabs(x);
  float t = FastExpf(-2.0f * a);
  float r = (1.0f - t) / (1.0f + t);
  return std::copysign(r, x);
}

constexpr float kGeluCoef = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluCubic = 0.044715f;

/// The tanh argument of the GELU approximation,
/// sqrt(2/pi) * (v + 0.044715 v^3), in the exact operation order the
/// vectorized GeluForward uses — shared with the backward pass so forward
/// and analytic gradient see the same tanh input.
inline float GeluTanhArg(float v) {
  float cvv = (kGeluCubic * v) * v;
  return kGeluCoef * std::fmaf(cvv, v, v);
}

#if defined(GOALEX_SIMD_LANES)

/// FastExpf over simd::kLanes lanes; each lane is bit-identical to the
/// scalar function (same clamp, fma, floor, conversion and multiply).
inline simd::Vec FastExp(simd::Vec x) {
  using namespace mathfn_detail;
  using namespace simd;
  x = Min(x, Set1(kExpHi));
  x = Max(x, Set1(kExpLo));
  Vec n = Floor(Fmadd(x, Set1(kLog2e), Set1(0.5f)));
  Vec r = Fnmadd(n, Set1(kLn2Hi), x);
  r = Fnmadd(n, Set1(kLn2Lo), r);
  Vec y = Set1(kExpC0);
  y = Fmadd(y, r, Set1(kExpC1));
  y = Fmadd(y, r, Set1(kExpC2));
  y = Fmadd(y, r, Set1(kExpC3));
  y = Fmadd(y, r, Set1(kExpC4));
  y = Fmadd(y, r, Set1(kExpC5));
  y = Fmadd(y, Mul(r, r), r);
  y = Add(y, Set1(1.0f));
  const VecI bits = ShiftLeftI<23>(AddI(TruncToI(n), Set1I(127)));
  return Mul(y, AsFloat(bits));
}

/// FastTanhf over simd::kLanes lanes; each lane is bit-identical to the
/// scalar function.
inline simd::Vec FastTanh(simd::Vec x) {
  using namespace simd;
  const Vec t = FastExp(Mul(Abs(x), Set1(-2.0f)));
  const Vec one = Set1(1.0f);
  return Or(Div(Sub(one, t), Add(one, t)), SignBit(x));
}

/// The tanh-GELU of GeluForward, lane for lane:
/// (0.5 v) * (1 + tanh(GeluTanhArg(v))).
inline simd::Vec Gelu(simd::Vec v) {
  using namespace simd;
  const Vec cvv = Mul(Mul(Set1(kGeluCubic), v), v);
  const Vec u = Mul(Set1(kGeluCoef), Fmadd(cvv, v, v));
  return Mul(Mul(Set1(0.5f), v), Add(Set1(1.0f), FastTanh(u)));
}

#endif  // GOALEX_SIMD_LANES

}  // namespace goalex::tensor

#endif  // GOALEX_TENSOR_MATHFN_H_
