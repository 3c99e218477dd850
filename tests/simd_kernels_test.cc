// Sweep of the width-generic inference kernels (tensor/simd.h) at the lane
// width this build compiles for. Every check is exact: a kernel's output
// bits must equal its named scalar reference at every shape, including the
// masked remainders (out_dim, t, n and m not multiples of the lane count).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "tensor/forward.h"
#include "tensor/kernels.h"
#include "tensor/mathfn.h"
#include "tensor/packed.h"
#include "tensor/qlinear.h"
#include "tensor/simd.h"

namespace goalex::tensor {
namespace {

std::vector<float> RandomVector(size_t n, float lo, float hi, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

/// Index of the first element whose bits differ, or -1.
int64_t FirstBitMismatch(const std::vector<float>& a,
                         const std::vector<float>& b) {
  if (a.size() != b.size()) return 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

TEST(SimdKernelsTest, ReportsCompiledLaneWidth) {
  std::printf("simd_lanes=%d\n", kSimdLanes);
  EXPECT_TRUE(kSimdLanes == 1 || kSimdLanes == 8 || kSimdLanes == 16);
}

#if defined(GOALEX_SIMD_LANES)

TEST(SimdKernelsTest, FastExpAndTanhLanesMatchScalar) {
  std::vector<float> inputs = {
      0.0f, -0.0f, 1e-30f, -1e-30f, 1e-40f, -1e-40f,
      std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
      std::numeric_limits<float>::denorm_min(), 1e-7f, -1e-7f, 0.5f, -0.5f,
      88.3762626647949f, -87.3365478515625f, 88.38f, -87.34f, 88.0f, -88.0f,
      89.0f, -89.0f, 100.0f, -100.0f, 1e10f, -1e10f};
  for (float x : RandomVector(4096, -90.0f, 90.0f, 3)) inputs.push_back(x);
  for (float x : RandomVector(1024, -1e-3f, 1e-3f, 4)) inputs.push_back(x);
  for (float x : RandomVector(1024, -10.0f, 10.0f, 5)) inputs.push_back(x);
  while (inputs.size() % simd::kLanes != 0) inputs.push_back(1.0f);

  std::vector<float> exp_vec(inputs.size()), tanh_vec(inputs.size());
  std::vector<float> exp_ref(inputs.size()), tanh_ref(inputs.size());
  for (size_t i = 0; i < inputs.size(); i += simd::kLanes) {
    const simd::Vec x = simd::Load(inputs.data() + i);
    simd::Store(exp_vec.data() + i, FastExp(x));
    simd::Store(tanh_vec.data() + i, FastTanh(x));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    exp_ref[i] = FastExpf(inputs[i]);
    tanh_ref[i] = FastTanhf(inputs[i]);
  }
  int64_t bad = FirstBitMismatch(exp_vec, exp_ref);
  EXPECT_EQ(bad, -1) << "FastExp(" << inputs[bad < 0 ? 0 : bad] << ")";
  bad = FirstBitMismatch(tanh_vec, tanh_ref);
  EXPECT_EQ(bad, -1) << "FastTanh(" << inputs[bad < 0 ? 0 : bad] << ")";
}

TEST(SimdKernelsTest, GeluAndSoftmaxTailsMatchScalar) {
  for (int64_t n = 1; n <= 2 * simd::kLanes + 3; ++n) {
    const std::vector<float> x =
        RandomVector(static_cast<size_t>(n), -6.0f, 6.0f,
                     static_cast<uint32_t>(n));
    std::vector<float> gelu(x.size()), gelu_ref(x.size());
    GeluForward(x.data(), gelu.data(), n);
    for (size_t i = 0; i < x.size(); ++i) {
      const float v = x[i];
      gelu_ref[i] = (0.5f * v) * (1.0f + FastTanhf(GeluTanhArg(v)));
    }
    EXPECT_EQ(FirstBitMismatch(gelu, gelu_ref), -1) << "GELU n=" << n;

    std::vector<float> soft(x.size()), soft_ref(x.size());
    SoftmaxRow(x.data(), soft.data(), n);
    float mx = -std::numeric_limits<float>::infinity();
    for (float v : x) mx = std::max(mx, v);
    double sum = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      soft_ref[i] = FastExpf(x[i] - mx);
      sum += soft_ref[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (float& v : soft_ref) v *= inv;
    EXPECT_EQ(FirstBitMismatch(soft, soft_ref), -1) << "softmax n=" << n;
  }
}

// LinearForward and its fused epilogues against the tape's composition:
// Gemm, then Axpy(1, bias) per row, then GeluForward / AddForward.
TEST(SimdKernelsTest, LinearsMatchGemmAxpyComposition) {
  for (int64_t in : {16, 37}) {
    for (int64_t out_dim : {8, 16, 24, 32, 40, 64, 128}) {
      for (int64_t m = 1; m <= 9; ++m) {
        const uint32_t seed =
            static_cast<uint32_t>(in * 1000 + out_dim * 10 + m);
        const std::vector<float> x =
            RandomVector(static_cast<size_t>(m * in), -1.0f, 1.0f, seed);
        const std::vector<float> w =
            RandomVector(static_cast<size_t>(in * out_dim), -0.5f, 0.5f,
                         seed + 1);
        const std::vector<float> bias =
            RandomVector(static_cast<size_t>(out_dim), -0.2f, 0.2f, seed + 2);
        const std::vector<float> res =
            RandomVector(static_cast<size_t>(m * out_dim), -1.0f, 1.0f,
                         seed + 3);
        const size_t size = static_cast<size_t>(m * out_dim);

        std::vector<float> ref(size);
        Gemm(x.data(), w.data(), ref.data(), m, in, out_dim,
             /*accumulate=*/false);
        for (int64_t i = 0; i < m; ++i) {
          Axpy(1.0f, bias.data(), ref.data() + i * out_dim, out_dim);
        }
        std::vector<float> gelu_ref(size), res_ref(size);
        GeluForward(ref.data(), gelu_ref.data(), m * out_dim);
        AddForward(res.data(), ref.data(), res_ref.data(), m * out_dim);

        std::vector<float> plain(size), gelu(size), resid(size);
        LinearForward(x.data(), w.data(), bias.data(), plain.data(), m, in,
                      out_dim);
        LinearGeluForward(x.data(), w.data(), bias.data(), gelu.data(), m, in,
                          out_dim);
        LinearResidualForward(x.data(), w.data(), bias.data(), res.data(),
                              resid.data(), m, in, out_dim);
        const std::string where = "in=" + std::to_string(in) + " out=" +
                                  std::to_string(out_dim) +
                                  " m=" + std::to_string(m);
        EXPECT_EQ(FirstBitMismatch(plain, ref), -1) << "linear " << where;
        EXPECT_EQ(FirstBitMismatch(gelu, gelu_ref), -1) << "gelu " << where;
        EXPECT_EQ(FirstBitMismatch(resid, res_ref), -1)
            << "residual " << where;
      }
    }
  }
}

TEST(SimdKernelsTest, PackedLayerNormMatchesLayerNormForward) {
  for (int64_t n : {7, 32, 40, 64}) {
    for (int64_t m = 1; m <= 17; ++m) {
      const uint32_t seed = static_cast<uint32_t>(n * 100 + m);
      const std::vector<float> x =
          RandomVector(static_cast<size_t>(m * n), -3.0f, 3.0f, seed);
      const std::vector<float> gamma =
          RandomVector(static_cast<size_t>(n), 0.5f, 1.5f, seed + 1);
      const std::vector<float> beta =
          RandomVector(static_cast<size_t>(n), -0.5f, 0.5f, seed + 2);
      std::vector<float> packed(x.size()), ref(x.size());
      LayerNormPackedForward(x.data(), gamma.data(), beta.data(),
                             packed.data(), m, n, 1e-5f);
      LayerNormForward(x.data(), gamma.data(), beta.data(), ref.data(), m, n,
                       1e-5f, nullptr, nullptr);
      EXPECT_EQ(FirstBitMismatch(packed, ref), -1) << "n=" << n << " m=" << m;
    }
  }
}

// One packed batch holding a sequence of every length t = 1..2·lanes+3,
// each compared against AttentionForward over its own slice.
TEST(SimdKernelsTest, PackedAttentionMatchesAttentionForward) {
  const int64_t max_t = 2 * simd::kLanes + 3;
  for (auto [d, heads] : {std::pair<int64_t, int32_t>{32, 2}, {24, 2},
                          {64, 4}}) {
    std::vector<int64_t> offsets = {0};
    for (int64_t t = 1; t <= max_t; ++t) offsets.push_back(offsets.back() + t);
    const int64_t total = offsets.back();
    const int64_t nseq = max_t;
    const size_t size = static_cast<size_t>(total * d);
    const uint32_t seed = static_cast<uint32_t>(d);
    const std::vector<float> q = RandomVector(size, -2.0f, 2.0f, seed);
    const std::vector<float> k = RandomVector(size, -2.0f, 2.0f, seed + 1);
    const std::vector<float> v = RandomVector(size, -1.0f, 1.0f, seed + 2);
    const int64_t dh = d / heads;
    const int64_t stride = PackedAttentionStride(max_t);
    std::vector<float> kat(static_cast<size_t>(dh * stride));
    std::vector<float> scores(
        static_cast<size_t>(kPackedAttentionRowBlock * stride));
    std::vector<float> packed(size);
    AttentionPackedForward(q.data(), k.data(), v.data(), packed.data(),
                           offsets.data(), nseq, d, heads, kat.data(),
                           scores.data());
    AttentionScratch scratch;
    for (int64_t s = 0; s < nseq; ++s) {
      const int64_t t = offsets[s + 1] - offsets[s];
      const size_t begin = static_cast<size_t>(offsets[s] * d);
      const size_t count = static_cast<size_t>(t * d);
      std::vector<float> ref(count);
      AttentionForward(q.data() + begin, k.data() + begin, v.data() + begin,
                       ref.data(), t, d, heads, /*probs=*/nullptr, scratch);
      const std::vector<float> got(packed.begin() + begin,
                                   packed.begin() + begin + count);
      EXPECT_EQ(FirstBitMismatch(got, ref), -1)
          << "d=" << d << " heads=" << heads << " t=" << t;
    }
  }
}

#endif  // GOALEX_SIMD_LANES

/// The quantized kernels' contract in scalar form: per-row asymmetric u8
/// codes, exact int32 accumulation over the repacked int8 codes, then the
/// fmaf dequant chain and the epilogue.
std::vector<float> QuantizedReference(const std::vector<float>& x,
                                      const QuantizedLinear& q, int64_t m,
                                      LinearEpilogue epilogue,
                                      const std::vector<float>& residual) {
  std::vector<float> out(static_cast<size_t>(m * q.out));
  for (int64_t i = 0; i < m; ++i) {
    const float* row = x.data() + i * q.in;
    float mn = row[0], mx = row[0];
    for (int64_t l = 1; l < q.in; ++l) {
      mn = std::min(mn, row[l]);
      mx = std::max(mx, row[l]);
    }
    const float range = mx - mn;
    const float sx = range > 0.0f ? range / 127.0f : 1.0f;
    const float inv = 1.0f / sx;
    std::vector<int32_t> codes(static_cast<size_t>(q.in));
    for (int64_t l = 0; l < q.in; ++l) {
      codes[l] = static_cast<int32_t>(std::lrintf((row[l] - mn) * inv));
    }
    for (int64_t j = 0; j < q.out; ++j) {
      int32_t acc = 0;
      for (int64_t l = 0; l < q.in; ++l) {
        acc += codes[l] * static_cast<int32_t>(
                              q.codes[((l / 4) * q.out + j) * 4 + l % 4]);
      }
      const float sw = q.scale[j];
      float v = std::fmaf(sx * sw, static_cast<float>(acc),
                          std::fmaf(mn * sw, q.colsum[j], q.bias[j]));
      if (epilogue == LinearEpilogue::kGelu) {
        v = (0.5f * v) * (1.0f + FastTanhf(GeluTanhArg(v)));
      } else if (epilogue == LinearEpilogue::kResidual) {
        v = residual[i * q.out + j] + v;
      }
      out[i * q.out + j] = v;
    }
  }
  return out;
}

TEST(SimdKernelsTest, QuantizedLinearsMatchScalarInt32Reference) {
  for (int64_t in : {16, 30, 64}) {
    for (int64_t out_dim : {8, 16, 24, 32, 40, 64, 128}) {
      const uint32_t seed = static_cast<uint32_t>(in * 1000 + out_dim);
      const std::vector<float> w = RandomVector(
          static_cast<size_t>(in * out_dim), -0.5f, 0.5f, seed);
      const std::vector<float> bias =
          RandomVector(static_cast<size_t>(out_dim), -0.2f, 0.2f, seed + 1);
      const QuantizedLinear q =
          QuantizeLinear(w.data(), bias.data(), in, out_dim);
      for (int64_t m = 1; m <= 9; ++m) {
        const std::vector<float> x = RandomVector(
            static_cast<size_t>(m * in), -2.0f, 2.0f, seed + 10 + m);
        const std::vector<float> res = RandomVector(
            static_cast<size_t>(m * out_dim), -1.0f, 1.0f, seed + 20 + m);
        const std::string where = "in=" + std::to_string(in) + " out=" +
                                  std::to_string(out_dim) +
                                  " m=" + std::to_string(m);
        for (LinearEpilogue epi :
             {LinearEpilogue::kNone, LinearEpilogue::kGelu,
              LinearEpilogue::kResidual}) {
          std::vector<float> got(static_cast<size_t>(m * out_dim));
          QuantizedLinearForward(x.data(), q, got.data(), m, epi, res.data());
          EXPECT_EQ(FirstBitMismatch(got,
                                     QuantizedReference(x, q, m, epi, res)),
                    -1)
              << where << " epilogue " << static_cast<int>(epi);
        }
        std::vector<float> oq(static_cast<size_t>(m * out_dim));
        std::vector<float> ok(oq.size()), ov(oq.size());
        QuantizedQkvForward(x.data(), q, q, q, oq.data(), ok.data(), ov.data(),
                            m);
        const std::vector<float> ref =
            QuantizedReference(x, q, m, LinearEpilogue::kNone, res);
        EXPECT_EQ(FirstBitMismatch(oq, ref), -1) << "qkv " << where;
        EXPECT_EQ(FirstBitMismatch(ok, ref), -1) << "qkv " << where;
        EXPECT_EQ(FirstBitMismatch(ov, ref), -1) << "qkv " << where;
      }
    }
  }
}

}  // namespace
}  // namespace goalex::tensor
