#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/mathfn.h"

namespace goalex::tensor {

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * m * n);
  // ikj loop order: innermost loop streams over contiguous rows of B and C.
  // The accumulate step is an explicit fused multiply-add so each output's
  // rounding sequence is pinned by IEEE semantics, not by whatever
  // contraction the compiler picks for this loop shape — the inference
  // engine's register-blocked linear kernel (tensor/forward.cc) replays
  // the same per-output fma sequence and must land on identical bits.
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t l = 0; l < k; ++l) {
      float a_val = a_row[l];
      if (a_val == 0.0f) continue;
      const float* b_row = b + l * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] = std::fmaf(a_val, b_row[j], c_row[j]);
      }
    }
  }
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool accumulate) {
  // C[i][j] = dot(A row i, B row j); both rows are contiguous.
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * n;
    float* c_row = c + i * k;
    for (int64_t j = 0; j < k; ++j) {
      const float* b_row = b + j * n;
      float sum = 0.0f;
      for (int64_t l = 0; l < n; ++l) sum += a_row[l] * b_row[l];
      if (accumulate) {
        c_row[j] += sum;
      } else {
        c_row[j] = sum;
      }
    }
  }
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, sizeof(float) * k * n);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    const float* b_row = b + i * n;
    for (int64_t l = 0; l < k; ++l) {
      float a_val = a_row[l];
      if (a_val == 0.0f) continue;
      float* c_row = c + l * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += a_val * b_row[j];
      }
    }
  }
}

void SoftmaxRow(const float* x, float* out, int64_t n) {
  float max_val = -std::numeric_limits<float>::infinity();
  for (int64_t i = 0; i < n; ++i) {
    if (x[i] > kSoftmaxMask / 2 && x[i] > max_val) max_val = x[i];
  }
  if (!std::isfinite(max_val)) {
    // Everything masked: uniform output avoids NaN downstream.
    float uniform = 1.0f / static_cast<float>(n);
    for (int64_t i = 0; i < n; ++i) out[i] = uniform;
    return;
  }
  // Exponentiate every entry with the shared fast exp (every vector lane
  // is bit-identical to the scalar function); masked entries produce a
  // harmless tiny value and are zeroed in the summation pass below.
#if defined(GOALEX_SIMD_LANES)
  using namespace simd;
  const Vec shift = Set1(max_val);
  for (int64_t i = 0; i < n; i += kLanes) {
    const Mask m = FirstN(n - i);
    Store(out + i, FastExp(Sub(Load(x + i, m), shift)), m);
  }
#else
  for (int64_t i = 0; i < n; ++i) out[i] = FastExpf(x[i] - max_val);
#endif
  double sum = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    if (x[j] <= kSoftmaxMask / 2) {
      out[j] = 0.0f;
    } else {
      sum += out[j];
    }
  }
  float inv = static_cast<float>(1.0 / sum);
  for (int64_t j = 0; j < n; ++j) out[j] *= inv;
}

double LogSumExp(const float* x, int64_t n) {
  float max_val = *std::max_element(x, x + n);
  if (!std::isfinite(max_val)) return max_val;
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) sum += std::exp(x[i] - max_val);
  return max_val + std::log(sum);
}

void Axpy(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double Dot(const float* x, const float* y, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void AccumulateAndClear(float* dst, float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] += src[i];
    src[i] = 0.0f;
  }
}

void AdamFusedStepScalar(float* w, float* g, float* m, float* v, int64_t n,
                         const AdamStepParams& p) {
  for (int64_t i = 0; i < n; ++i) {
    float grad = g[i] * p.clip_scale;
    float w_i = w[i];
    if (p.decay_scale != 0.0f) w_i = std::fmaf(-p.decay_scale, w_i, w_i);
    float m_i = std::fmaf(p.beta1, m[i], p.one_minus_beta1 * grad);
    float v_i = std::fmaf(p.beta2, v[i], p.one_minus_beta2 * (grad * grad));
    float denom = std::fmaf(std::sqrt(v_i), p.inv_sqrt_bias2, p.eps);
    w[i] = w_i - (p.step_size * m_i) / denom;
    m[i] = m_i;
    v[i] = v_i;
    g[i] = 0.0f;
  }
}

void AdamFusedStep(float* w, float* g, float* m, float* v, int64_t n,
                   const AdamStepParams& p) {
  int64_t i = 0;
#if defined(__AVX2__) && defined(__FMA__)
  // Each intrinsic below mirrors one IEEE operation of the scalar variant
  // in the same order (mul, fnmadd<->fmaf(-a,b,c), fmadd<->fmaf,
  // sqrtps<->sqrtf, divps</>), so every lane lands on the scalar bits.
  const __m256 clip = _mm256_set1_ps(p.clip_scale);
  const __m256 beta1 = _mm256_set1_ps(p.beta1);
  const __m256 om_beta1 = _mm256_set1_ps(p.one_minus_beta1);
  const __m256 beta2 = _mm256_set1_ps(p.beta2);
  const __m256 om_beta2 = _mm256_set1_ps(p.one_minus_beta2);
  const __m256 inv_sqrt_bias2 = _mm256_set1_ps(p.inv_sqrt_bias2);
  const __m256 eps = _mm256_set1_ps(p.eps);
  const __m256 step = _mm256_set1_ps(p.step_size);
  const __m256 decay = _mm256_set1_ps(p.decay_scale);
  const __m256 zero = _mm256_setzero_ps();
  const bool has_decay = p.decay_scale != 0.0f;
  for (; i + 8 <= n; i += 8) {
    __m256 grad = _mm256_mul_ps(_mm256_loadu_ps(g + i), clip);
    __m256 wv = _mm256_loadu_ps(w + i);
    if (has_decay) wv = _mm256_fnmadd_ps(decay, wv, wv);
    __m256 mv = _mm256_fmadd_ps(beta1, _mm256_loadu_ps(m + i),
                                _mm256_mul_ps(om_beta1, grad));
    __m256 vv =
        _mm256_fmadd_ps(beta2, _mm256_loadu_ps(v + i),
                        _mm256_mul_ps(om_beta2, _mm256_mul_ps(grad, grad)));
    __m256 denom = _mm256_fmadd_ps(_mm256_sqrt_ps(vv), inv_sqrt_bias2, eps);
    wv = _mm256_sub_ps(wv, _mm256_div_ps(_mm256_mul_ps(step, mv), denom));
    _mm256_storeu_ps(w + i, wv);
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    _mm256_storeu_ps(g + i, zero);
  }
#endif
  AdamFusedStepScalar(w + i, g + i, m + i, v + i, n - i, p);
}

double GradSquaredSumScalar(const float* g, int64_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (int64_t i = 0; i < n; ++i) {
    double d = static_cast<double>(g[i]);
    acc[i & 3] = std::fma(d, d, acc[i & 3]);
  }
  return ((acc[0] + acc[1]) + acc[2]) + acc[3];
}

double GradSquaredSum(const float* g, int64_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  // 4 double lanes; element i accumulates into lane i mod 4 exactly as the
  // scalar variant does, and the final combine is in lane order.
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d d = _mm256_cvtps_pd(_mm_loadu_ps(g + i));
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) {
    double d = static_cast<double>(g[i]);
    lane[i & 3] = std::fma(d, d, lane[i & 3]);
  }
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
#else
  return GradSquaredSumScalar(g, n);
#endif
}

}  // namespace goalex::tensor
