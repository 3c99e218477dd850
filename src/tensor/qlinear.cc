#include "tensor/qlinear.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tensor/mathfn.h"

namespace goalex::tensor {
namespace {

/// Bytes of one quantized activation row: whole input groups, padded to
/// whole vectors because QuantizeRow stores simd::kLanes codes at a time.
size_t RowCodeBytes(int64_t in_groups) {
#if defined(GOALEX_SIMD_LANES)
  const int64_t lanes = simd::kLanes;
  return static_cast<size_t>((in_groups * 4 + lanes - 1) / lanes * lanes);
#else
  return static_cast<size_t>(in_groups * 4);
#endif
}

/// Quantizes one activation row to u8 codes in [0, 127]:
/// xq[l] = round((x[l] - min) / sx) with sx = (max - min) / 127. The
/// asymmetric zero point keeps the full 7-bit budget on the actual
/// activation range (post-layer-norm rows are roughly symmetric, but GELU
/// outputs are not), and u8 codes are what the u8 × s8 dot products want
/// on the left. Codes past `n` are zeroed so the grouped kernel can read
/// whole groups; `xq` holds RowCodeBytes(n_groups) bytes.
void QuantizeRow(const float* x, int64_t n, uint8_t* xq, int64_t n_groups,
                 float* min_out, float* sx_out) {
#if defined(GOALEX_SIMD_LANES)
  using namespace simd;
  // Min and max are exact, so lane order is irrelevant; masked-off tail
  // lanes are filled with x[0].
  const Vec first = Set1(x[0]);
  Vec vmn = first, vmx = first;
  int64_t l = 0;
  for (; l + kLanes <= n; l += kLanes) {
    const Vec v = Load(x + l);
    vmn = Min(vmn, v);
    vmx = Max(vmx, v);
  }
  if (l < n) {
    const Mask m = FirstN(n - l);
    const Vec v = Select(m, Load(x + l, m), first);
    vmn = Min(vmn, v);
    vmx = Max(vmx, v);
  }
  const float mn = ReduceMin(vmn);
  const float mx = ReduceMax(vmx);
#else
  float mn = x[0], mx = x[0];
  for (int64_t l = 1; l < n; ++l) {
    mn = std::min(mn, x[l]);
    mx = std::max(mx, x[l]);
  }
#endif
  const float range = mx - mn;
  const float sx = range > 0.0f ? range / 127.0f : 1.0f;
  const float inv = 1.0f / sx;
#if defined(GOALEX_SIMD_LANES)
  // cvtps rounds to nearest even, as lrintf does in the default mode.
  const Vec vinv = Set1(inv);
  const Vec vmin = Set1(mn);
  for (int64_t j = 0; j < n; j += kLanes) {
    StoreBytes(xq + j,
               RoundToI(Mul(Sub(Load(x + j, FirstN(n - j)), vmin), vinv)));
  }
#else
  for (int64_t l = 0; l < n; ++l) {
    xq[l] = static_cast<uint8_t>(std::lrintf((x[l] - mn) * inv));
  }
#endif
  for (int64_t z = n; z < n_groups * 4; ++z) xq[z] = 0;
  *min_out = mn;
  *sx_out = sx;
}

#if defined(GOALEX_SIMD_LANES)

/// Output columns per register tile: 4 vectors at 8 lanes, 2 at 16.
constexpr int kColVecs = 32 / simd::kLanes;

/// kC output vectors of one quantized row (columns from `j0`), epilogue
/// fused at store; when kTail (kC == 1) only the lanes in `tail` are
/// loaded and stored. Each int32 lane accumulates its column's
/// u8 × s8 products exactly (DotU8I8), then dequantizes as
/// sx·sw·acc + (mn·sw·colsum + bias). kEpi: 0 none, 1 GELU, 2 residual.
template <int kEpi, int kC, bool kTail>
inline void QuantizedTile(const uint8_t* xq, const QuantizedLinear& q,
                          int64_t j0, simd::Vec vsx, simd::Vec vmn, float* o,
                          const float* res, simd::Mask tail) {
  using namespace simd;
  const int64_t od = q.out;
  VecI acc[kC];
  for (int c = 0; c < kC; ++c) acc[c] = ZeroI();
  const int8_t* wb = q.codes.data() + j0 * 4;
  for (int64_t b = 0; b < q.in_groups; ++b) {
    const VecI act = Set1I(LoadWord(xq + b * 4));
    const int8_t* wrow = wb + b * od * 4;
    for (int c = 0; c < kC; ++c) {
      acc[c] = DotU8I8(acc[c], act, LoadIT<kTail>(wrow + c * kLanes * 4, tail));
    }
  }
  for (int c = 0; c < kC; ++c) {
    const int64_t j = j0 + c * kLanes;
    const Vec sw = LoadT<kTail>(q.scale.data() + j, tail);
    const Vec cs = LoadT<kTail>(q.colsum.data() + j, tail);
    const Vec bv = LoadT<kTail>(q.bias.data() + j, tail);
    Vec v = Fmadd(Mul(vsx, sw), ToFloat(acc[c]), Fmadd(Mul(vmn, sw), cs, bv));
    if constexpr (kEpi == 1) {
      v = Gelu(v);
    } else if constexpr (kEpi == 2) {
      v = Add(LoadT<kTail>(res + j, tail), v);
    }
    StoreT<kTail>(o + j, v, tail);
  }
}

#endif  // GOALEX_SIMD_LANES

/// One quantized row×layer product into `o`, epilogue fused at store.
/// kEpi: 0 none, 1 GELU, 2 residual add (`res` is read only then).
template <int kEpi>
void QuantizedRowForward(const uint8_t* xq, float mn, float sx,
                         const QuantizedLinear& q, float* o,
                         const float* res) {
  const int64_t od = q.out;
#if defined(GOALEX_SIMD_LANES)
  const simd::Vec vsx = simd::Set1(sx);
  const simd::Vec vmn = simd::Set1(mn);
  simd::ForEachColumnTile<kColVecs>(
      od, [&](int64_t j0, auto cols, auto tail, simd::Mask mask) {
        QuantizedTile<kEpi, cols, tail>(xq, q, j0, vsx, vmn, o, res, mask);
      });
#else
  for (int64_t j = 0; j < od; ++j) {
    int32_t acc = 0;
    for (int64_t b = 0; b < q.in_groups; ++b) {
      const int8_t* wg = q.codes.data() + (b * od + j) * 4;
      const uint8_t* xg = xq + b * 4;
      for (int z = 0; z < 4; ++z) {
        acc += static_cast<int32_t>(xg[z]) * static_cast<int32_t>(wg[z]);
      }
    }
    const float sw = q.scale[j];
    float v = std::fmaf(sx * sw, static_cast<float>(acc),
                        std::fmaf(mn * sw, q.colsum[j], q.bias[j]));
    if constexpr (kEpi == 1) {
      v = (0.5f * v) * (1.0f + FastTanhf(GeluTanhArg(v)));
    } else if constexpr (kEpi == 2) {
      v = res[j] + v;
    }
    o[j] = v;
  }
#endif
}

template <int kEpi>
void QuantizedForwardImpl(const float* x, const QuantizedLinear& q,
                          float* out, int64_t m, const float* residual) {
  std::vector<uint8_t> xq(RowCodeBytes(q.in_groups));
  for (int64_t i = 0; i < m; ++i) {
    float mn, sx;
    QuantizeRow(x + i * q.in, q.in, xq.data(), q.in_groups, &mn, &sx);
    QuantizedRowForward<kEpi>(
        xq.data(), mn, sx, q, out + i * q.out,
        residual != nullptr ? residual + i * q.out : nullptr);
  }
}

}  // namespace

QuantizedLinear QuantizeLinear(const float* w, const float* bias, int64_t in,
                               int64_t out) {
  GOALEX_CHECK_GT(in, 0);
  GOALEX_CHECK_GT(out, 0);
  QuantizedLinear q;
  q.in = in;
  q.out = out;
  q.in_groups = (in + 3) / 4;
  q.codes.assign(static_cast<size_t>(q.in_groups) * out * 4, 0);
  q.scale.resize(out);
  q.colsum.assign(out, 0.0f);
  q.bias.assign(bias, bias + out);
  for (int64_t j = 0; j < out; ++j) {
    float mx = 0.0f;
    for (int64_t l = 0; l < in; ++l) {
      mx = std::max(mx, std::fabs(w[l * out + j]));
    }
    const float s = mx > 0.0f ? mx / 127.0f : 1.0f;
    q.scale[j] = s;
    int32_t cs = 0;
    for (int64_t l = 0; l < in; ++l) {
      const int32_t code =
          static_cast<int32_t>(std::lrintf(w[l * out + j] / s));
      q.codes[((l / 4) * out + j) * 4 + (l % 4)] = static_cast<int8_t>(code);
      cs += code;
    }
    q.colsum[j] = static_cast<float>(cs);
  }
  return q;
}

void QuantizedLinearForward(const float* x, const QuantizedLinear& q,
                            float* out, int64_t m, LinearEpilogue epilogue,
                            const float* residual) {
  switch (epilogue) {
    case LinearEpilogue::kNone:
      QuantizedForwardImpl<0>(x, q, out, m, nullptr);
      break;
    case LinearEpilogue::kGelu:
      QuantizedForwardImpl<1>(x, q, out, m, nullptr);
      break;
    case LinearEpilogue::kResidual:
      GOALEX_CHECK(residual != nullptr);
      QuantizedForwardImpl<2>(x, q, out, m, residual);
      break;
  }
}

void QuantizedQkvForward(const float* x, const QuantizedLinear& wq,
                         const QuantizedLinear& wk, const QuantizedLinear& wv,
                         float* out_q, float* out_k, float* out_v, int64_t m) {
  GOALEX_CHECK(wq.in == wk.in && wk.in == wv.in);
  GOALEX_CHECK(wq.out == wk.out && wk.out == wv.out);
  std::vector<uint8_t> xq(RowCodeBytes(wq.in_groups));
  for (int64_t i = 0; i < m; ++i) {
    float mn, sx;
    QuantizeRow(x + i * wq.in, wq.in, xq.data(), wq.in_groups, &mn, &sx);
    QuantizedRowForward<0>(xq.data(), mn, sx, wq, out_q + i * wq.out, nullptr);
    QuantizedRowForward<0>(xq.data(), mn, sx, wk, out_k + i * wk.out, nullptr);
    QuantizedRowForward<0>(xq.data(), mn, sx, wv, out_v + i * wv.out, nullptr);
  }
}

}  // namespace goalex::tensor
