#include "nn/elementwise_kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define BLAZEIT_X86_64 1
#endif

#include "util/cpu_features.h"

namespace blazeit {
namespace elementwise {

void SgdMomentumStepScalar(float* value, float* vel, const float* grad,
                           size_t n, float momentum, float lr) {
  for (size_t i = 0; i < n; ++i) {
    vel[i] = momentum * vel[i] + grad[i];
    value[i] -= lr * vel[i];
  }
}

void AccumulateScalar(float* dst, const float* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

#ifdef BLAZEIT_X86_64

namespace {

__attribute__((target("avx512f"))) void SgdMomentumStepAvx512(
    float* value, float* vel, const float* grad, size_t n, float momentum,
    float lr) {
  const __m512 m = _mm512_set1_ps(momentum);
  const __m512 rate = _mm512_set1_ps(lr);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_add_ps(_mm512_mul_ps(m, _mm512_loadu_ps(vel + i)),
                                   _mm512_loadu_ps(grad + i));
    _mm512_storeu_ps(vel + i, v);
    _mm512_storeu_ps(value + i, _mm512_sub_ps(_mm512_loadu_ps(value + i),
                                              _mm512_mul_ps(rate, v)));
  }
  SgdMomentumStepScalar(value + i, vel + i, grad + i, n - i, momentum, lr);
}

__attribute__((target("avx512f"))) void AccumulateAvx512(float* dst,
                                                        const float* src,
                                                        size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  AccumulateScalar(dst + i, src + i, n - i);
}

}  // namespace

#endif  // BLAZEIT_X86_64

void SgdMomentumStep(float* value, float* vel, const float* grad, size_t n,
                     float momentum, float lr) {
#ifdef BLAZEIT_X86_64
  if (CpuHasAvx512()) {
    SgdMomentumStepAvx512(value, vel, grad, n, momentum, lr);
    return;
  }
#endif
  SgdMomentumStepScalar(value, vel, grad, n, momentum, lr);
}

void Accumulate(float* dst, const float* src, size_t n) {
#ifdef BLAZEIT_X86_64
  if (CpuHasAvx512()) {
    AccumulateAvx512(dst, src, n);
    return;
  }
#endif
  AccumulateScalar(dst, src, n);
}

}  // namespace elementwise
}  // namespace blazeit
