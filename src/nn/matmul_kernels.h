#ifndef BLAZEIT_NN_MATMUL_KERNELS_H_
#define BLAZEIT_NN_MATMUL_KERNELS_H_

#include <cstddef>

namespace blazeit {
namespace matmul {

/// Raw GEMM kernels behind nn/tensor.h's MatMul entry points, runtime-
/// dispatched across three ISA tiers — AVX-512 tiles, AVX2 tiles, and
/// portable scalar loops (see util/cpu_features.h) — and sharded across
/// the exec thread pool when the product is large enough to pay for it.
/// All matrices are dense row-major float.
///
/// Bit-exactness contract (for finite inputs): for every output cell,
/// contributions accumulate in ascending-k order with multiply and add
/// kept separate (no FMA, no reassociated/horizontal reductions), and the
/// SIMD tiles assign each cell to one vector lane, so the scalar, AVX2,
/// and AVX-512 paths produce identical bits — dispatch can never change
/// query outputs, only wall clock. The same argument covers pool
/// sharding: shards split the output range (rows, or columns for
/// TransposeB) at fixed boundaries independent of thread count, each cell
/// still accumulating in one lane in ascending-k order, so results are
/// identical at any BLAZEIT_THREADS. tests/tensor_test.cc pins
/// scalar/SIMD parity on every tier. The finite-input scope exists
/// because the scalar kernels skip exact-zero left-operand coefficients
/// per element while the blocked SIMD tiles skip per row group (at
/// AVX-512, 8 rows when a 64-column group has at most two live 16-column
/// tiles and 4 otherwise, halving down to 1 at row tails; 2 at AVX2) —
/// for finite operands the extra signed-zero contributions are
/// bit-neutral (see the kernel comments), but an Inf/NaN in `b` under a
/// zero coefficient (already-diverged training) can differ between paths.

/// c[m,n] = a[m,k] * b[k,n]. `c` must be zero-initialized.
void MatMul(const float* a, const float* b, float* c, int m, int k, int n);
void MatMulScalar(const float* a, const float* b, float* c, int m, int k,
                  int n);

/// c[m,n] = a[k,m]^T * b[k,n]. `c` must be zero-initialized.
void MatMulTransposeA(const float* a, const float* b, float* c, int m, int k,
                      int n);
void MatMulTransposeAScalar(const float* a, const float* b, float* c, int m,
                            int k, int n);

/// c[m,n] = a[m,k] * b[n,k]^T. `c` may be uninitialized (every cell is a
/// full dot product and is stored exactly once).
void MatMulTransposeB(const float* a, const float* b, float* c, int m, int k,
                      int n);
void MatMulTransposeBScalar(const float* a, const float* b, float* c, int m,
                            int k, int n);

}  // namespace matmul
}  // namespace blazeit

#endif  // BLAZEIT_NN_MATMUL_KERNELS_H_
