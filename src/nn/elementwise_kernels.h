#ifndef BLAZEIT_NN_ELEMENTWISE_KERNELS_H_
#define BLAZEIT_NN_ELEMENTWISE_KERNELS_H_

#include <cstddef>

namespace blazeit {
namespace elementwise {

/// The element-wise loops of training — the SGD update and gradient
/// accumulation — runtime-dispatched between an AVX-512 path and the
/// portable scalar loop (see util/cpu_features.h), the way
/// nn/matmul_kernels.h dispatches the GEMMs. Each element sits in one
/// vector lane and runs exactly the scalar expression (separate multiply
/// and add, no FMA), and the last n % 16 elements run on the scalar path,
/// so both paths produce identical bits. tests/tensor_test.cc pins the
/// parity on every tier.

/// SGD with momentum over n parameters:
///   vel[i] = momentum * vel[i] + grad[i];  value[i] -= lr * vel[i].
void SgdMomentumStep(float* value, float* vel, const float* grad, size_t n,
                     float momentum, float lr);
void SgdMomentumStepScalar(float* value, float* vel, const float* grad,
                           size_t n, float momentum, float lr);

/// dst[i] += src[i] for i in [0, n).
void Accumulate(float* dst, const float* src, size_t n);
void AccumulateScalar(float* dst, const float* src, size_t n);

}  // namespace elementwise
}  // namespace blazeit

#endif  // BLAZEIT_NN_ELEMENTWISE_KERNELS_H_
