#include "nn/matmul_kernels.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define BLAZEIT_X86_64 1
#endif

#include "exec/parallel_for.h"
#include "util/cpu_features.h"

namespace blazeit {
namespace matmul {

// All kernels are written over a *range* of the output — rows [i0, i1)
// for MatMul / MatMulTransposeA, columns [j0, j1) for MatMulTransposeB —
// so the dispatchers can shard one GEMM across the exec thread pool.
// Range boundaries never change per-cell arithmetic: every output cell
// still accumulates its k-contributions in ascending order in one lane,
// so a sharded product is bit-identical to the single-range call (the
// blocked kernels' group-of-rows zero-skip differs at shard boundaries,
// but as documented in the header, skipped-vs-added signed zeros are
// bit-neutral for finite inputs). Shard sizes are fixed constants —
// independent of thread count — and large GEMMs are *always* decomposed
// (inline and in order when the pool is serial), so even the
// non-finite-input edge cannot vary with BLAZEIT_THREADS.

namespace {

/// Minimum multiply-add count before a GEMM is worth sharding across the
/// pool (below this, shard bookkeeping rivals the math).
constexpr int64_t kParallelFlops = int64_t{1} << 22;
/// Rows per shard (multiple of the 8-row kernel blocks).
constexpr int kRowShard = 32;
/// Columns per shard for MatMulTransposeB (multiple of the 16-wide tile).
constexpr int kColShard = 64;

bool WorthSharding(int m, int k, int n, int span, int shard) {
  return static_cast<int64_t>(m) * k * n >= kParallelFlops &&
         span >= 2 * shard;
}

// ---------------------------------------------------------------------------
// Scalar kernels: saxpy-style inner loops that the autovectorizer handles
// at -O2, with an exact-zero skip that pays off on ReLU activations.
// ---------------------------------------------------------------------------

void MatMulScalarRows(const float* a, const float* b, float* c, int k, int n,
                      int i0, int i1) {
  for (int i = i0; i < i1; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransposeAScalarRows(const float* a, const float* b, float* c,
                                int m, int k, int n, int i0, int i1) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = i0; i < i1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransposeBScalarCols(const float* a, const float* b, float* c,
                                int m, int k, int n, int j0, int j1) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = j0; j < j1; ++j) {
      const float* brow = b + static_cast<size_t>(j) * k;
      float sum = 0.0f;
      for (int p = 0; p < k; ++p) sum += arow[p] * brow[p];
      crow[j] = sum;
    }
  }
}

}  // namespace

void MatMulScalar(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  MatMulScalarRows(a, b, c, k, n, 0, m);
}

void MatMulTransposeAScalar(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  MatMulTransposeAScalarRows(a, b, c, m, k, n, 0, m);
}

void MatMulTransposeBScalar(const float* a, const float* b, float* c, int m,
                            int k, int n) {
  MatMulTransposeBScalarCols(a, b, c, m, k, n, 0, n);
}

// ---------------------------------------------------------------------------
// AVX-512 kernels. Each output cell lives in exactly one vector lane and
// accumulates its k-contributions in ascending order with separate
// multiply/add intrinsics, so results are bit-identical to the scalar
// kernels above.
// ---------------------------------------------------------------------------

#ifdef BLAZEIT_X86_64

// GCC 12's maskz load/store intrinsics expand through an uninitialized
// placeholder vector, tripping -Wmaybe-uninitialized at -O2; the pattern
// is well-defined (masked lanes are zeroed), so silence the false
// positive for the kernel bodies only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

/// Left operand of the row-blocked kernels: output row i's coefficient at
/// step p is a[i * row_stride + p * step_stride]. MatMul's row-major
/// a[m,k] has strides (k, 1); MatMulTransposeA reads a[k,m] as (1, m).
struct LeftOperand {
  const float* a;
  size_t row_stride;
  size_t step_stride;
};

/// One block of kRows output rows by kTiles 16-column tiles starting at
/// column j0: kRows * kTiles zmm accumulators, with each step's row of b
/// loaded once and reused by all kRows rows (b is the dominant memory
/// traffic, re-read once per row block). A coefficient that is exactly
/// zero contributes only a signed zero, and adding a signed zero never
/// changes a finite partial sum (a +0 accumulator stays +0 under
/// round-to-nearest), so the unconditional multiply-add in a block is
/// bit-identical to the scalar kernel's per-element skip for finite
/// inputs; skipping steps whose kRows coefficients are all zero keeps the
/// ReLU-sparsity win. Every loop over rows or tiles is fully unrolled so
/// the accumulators stay in registers.
template <int kTiles, int kRows>
__attribute__((target("avx512f,avx512dq"))) void Avx512Block(
    LeftOperand lhs, const float* b, float* c, int k, int n, int i, int j0,
    const __mmask16* mask) {
  const float* arow[kRows];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    arow[r] = lhs.a + static_cast<size_t>(i + r) * lhs.row_stride;
  }
  __m512 acc[kRows][kTiles];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int t = 0; t < kTiles; ++t) acc[r][t] = _mm512_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const size_t step = static_cast<size_t>(p) * lhs.step_stride;
    float v[kRows];
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) v[r] = arow[r][step];
    // Short-circuit, so a dense block pays one compare per step.
    int first_nonzero = 0;
#pragma GCC unroll 8
    for (; first_nonzero < kRows; ++first_nonzero) {
      if (v[first_nonzero] != 0.0f) break;
    }
    if (first_nonzero == kRows) continue;
    const float* brow = b + static_cast<size_t>(p) * n + j0;
#pragma GCC unroll 8
    for (int t = 0; t < kTiles; ++t) {
      const __m512 bv = _mm512_maskz_loadu_ps(mask[t], brow + 16 * t);
#pragma GCC unroll 8
      for (int r = 0; r < kRows; ++r) {
        acc[r][t] =
            _mm512_add_ps(acc[r][t], _mm512_mul_ps(_mm512_set1_ps(v[r]), bv));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    float* crow = c + static_cast<size_t>(i + r) * n + j0;
#pragma GCC unroll 8
    for (int t = 0; t < kTiles; ++t) {
      _mm512_mask_storeu_ps(crow + 16 * t, mask[t], acc[r][t]);
    }
  }
}

/// Rows [i, i1) in blocks of kRows, the remainder in halving blocks.
template <int kTiles, int kRows>
__attribute__((target("avx512f,avx512dq"))) void Avx512RowBlocks(
    LeftOperand lhs, const float* b, float* c, int k, int n, int i, int i1,
    int j0, const __mmask16* mask) {
  for (; i + kRows <= i1; i += kRows) {
    Avx512Block<kTiles, kRows>(lhs, b, c, k, n, i, j0, mask);
  }
  if constexpr (kRows > 1) {
    Avx512RowBlocks<kTiles, kRows / 2>(lhs, b, c, k, n, i, i1, j0, mask);
  }
}

/// Rows [i0, i1) of the kTiles live 16-column tiles from column j0. Only
/// tiles holding live columns run, and when at most two are live the
/// accumulators they free carry 8-row blocks instead of 4.
template <int kTiles>
__attribute__((target("avx512f,avx512dq"))) void Avx512ColumnGroup(
    LeftOperand lhs, const float* b, float* c, int k, int n, int i0, int i1,
    int j0) {
  __mmask16 mask[kTiles];
  for (int t = 0; t < kTiles; ++t) {
    const int live = std::min(n - (j0 + 16 * t), 16);
    mask[t] = static_cast<__mmask16>((1u << live) - 1u);
  }
  Avx512RowBlocks<kTiles, kTiles <= 2 ? 8 : 4>(lhs, b, c, k, n, i0, i1, j0,
                                               mask);
}

/// c rows [i0, i1) += lhs * b, in 64-column groups.
__attribute__((target("avx512f,avx512dq"))) void GemmAvx512Rows(
    LeftOperand lhs, const float* b, float* c, int k, int n, int i0, int i1) {
  for (int j0 = 0; j0 < n; j0 += 64) {
    switch ((std::min(n - j0, 64) + 15) / 16) {
      case 1:
        Avx512ColumnGroup<1>(lhs, b, c, k, n, i0, i1, j0);
        break;
      case 2:
        Avx512ColumnGroup<2>(lhs, b, c, k, n, i0, i1, j0);
        break;
      case 3:
        Avx512ColumnGroup<3>(lhs, b, c, k, n, i0, i1, j0);
        break;
      default:
        Avx512ColumnGroup<4>(lhs, b, c, k, n, i0, i1, j0);
        break;
    }
  }
}

__attribute__((target("avx512f,avx512dq"))) void MatMulTransposeBAvx512Cols(
    const float* a, const float* b, float* c, int m, int k, int n, int jb,
    int je) {
  // Every cell is a strict-order dot product over k, so the j dimension is
  // vectorized instead: pack a 16-column tile of b transposed (so step p
  // reads 16 contiguous floats), then sweep rows of a four at a time for
  // four independent accumulator chains. Lane j keeps its own running sum
  // in ascending-p order — identical bits to the scalar dot product.
  std::vector<float> bt(static_cast<size_t>(k) * 16);
  for (int j0 = jb; j0 < je; j0 += 16) {
    const int jw = je - j0 < 16 ? je - j0 : 16;
    const __mmask16 mask = static_cast<__mmask16>((1u << jw) - 1u);
    for (int p = 0; p < k; ++p) {
      float* row = bt.data() + static_cast<size_t>(p) * 16;
      for (int t = 0; t < jw; ++t) {
        row[t] = b[static_cast<size_t>(j0 + t) * k + p];
      }
      for (int t = jw; t < 16; ++t) row[t] = 0.0f;
    }
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      __m512 acc2 = _mm512_setzero_ps();
      __m512 acc3 = _mm512_setzero_ps();
      for (int p = 0; p < k; ++p) {
        const __m512 bv = _mm512_loadu_ps(bt.data() + static_cast<size_t>(p) * 16);
        acc0 = _mm512_add_ps(acc0, _mm512_mul_ps(_mm512_set1_ps(a0[p]), bv));
        acc1 = _mm512_add_ps(acc1, _mm512_mul_ps(_mm512_set1_ps(a1[p]), bv));
        acc2 = _mm512_add_ps(acc2, _mm512_mul_ps(_mm512_set1_ps(a2[p]), bv));
        acc3 = _mm512_add_ps(acc3, _mm512_mul_ps(_mm512_set1_ps(a3[p]), bv));
      }
      _mm512_mask_storeu_ps(c + static_cast<size_t>(i) * n + j0, mask, acc0);
      _mm512_mask_storeu_ps(c + static_cast<size_t>(i + 1) * n + j0, mask, acc1);
      _mm512_mask_storeu_ps(c + static_cast<size_t>(i + 2) * n + j0, mask, acc2);
      _mm512_mask_storeu_ps(c + static_cast<size_t>(i + 3) * n + j0, mask, acc3);
    }
    for (; i < m; ++i) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      __m512 acc = _mm512_setzero_ps();
      for (int p = 0; p < k; ++p) {
        const __m512 bv = _mm512_loadu_ps(bt.data() + static_cast<size_t>(p) * 16);
        acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(a0[p]), bv));
      }
      _mm512_mask_storeu_ps(c + static_cast<size_t>(i) * n + j0, mask, acc);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 tier: the same tiling ideas at 256 bits — 32-column groups (four
// ymm accumulators) with 2-row blocks, per-8-column tail masks built by
// integer compare. Per-cell accumulation stays ascending-k with separate
// multiply/add, so this tier too is bit-identical to scalar for finite
// inputs (the 2-row blocks skip a step only when both coefficients are
// exactly zero; see the signed-zero note above).
// ---------------------------------------------------------------------------

/// All-ones in lanes [0, live), zeros beyond — the AVX2 maskload/maskstore
/// mask for a partial 8-column subgroup.
__attribute__((target("avx2"))) inline __m256i LaneMaskAvx2(int live) {
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(live), iota);
}

__attribute__((target("avx2"))) void MatMulAvx2Rows(const float* a,
                                                    const float* b, float* c,
                                                    int k, int n, int i0,
                                                    int i1) {
  for (int j0 = 0; j0 < n; j0 += 32) {
    __m256i mask[4];
    for (int t = 0; t < 4; ++t) {
      int live = n - (j0 + 8 * t);
      live = live < 0 ? 0 : (live > 8 ? 8 : live);
      mask[t] = LaneMaskAvx2(live);
    }
    int i = i0;
    for (; i + 2 <= i1; i += 2) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      const float* a1 = a0 + k;
      __m256 acc[2][4];
      for (int r = 0; r < 2; ++r) {
        for (int t = 0; t < 4; ++t) acc[r][t] = _mm256_setzero_ps();
      }
      for (int p = 0; p < k; ++p) {
        const float v0 = a0[p], v1 = a1[p];
        if (v0 == 0.0f && v1 == 0.0f) continue;
        const float* brow = b + static_cast<size_t>(p) * n + j0;
        const __m256 w0 = _mm256_set1_ps(v0);
        const __m256 w1 = _mm256_set1_ps(v1);
        for (int t = 0; t < 4; ++t) {
          const __m256 bv = _mm256_maskload_ps(brow + 8 * t, mask[t]);
          acc[0][t] = _mm256_add_ps(acc[0][t], _mm256_mul_ps(w0, bv));
          acc[1][t] = _mm256_add_ps(acc[1][t], _mm256_mul_ps(w1, bv));
        }
      }
      for (int r = 0; r < 2; ++r) {
        float* crow = c + static_cast<size_t>(i + r) * n + j0;
        for (int t = 0; t < 4; ++t) {
          _mm256_maskstore_ps(crow + 8 * t, mask[t], acc[r][t]);
        }
      }
    }
    for (; i < i1; ++i) {
      const float* arow = a + static_cast<size_t>(i) * k;
      __m256 acc[4];
      for (int t = 0; t < 4; ++t) acc[t] = _mm256_setzero_ps();
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const __m256 avv = _mm256_set1_ps(av);
        const float* brow = b + static_cast<size_t>(p) * n + j0;
        for (int t = 0; t < 4; ++t) {
          const __m256 bv = _mm256_maskload_ps(brow + 8 * t, mask[t]);
          acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(avv, bv));
        }
      }
      float* crow = c + static_cast<size_t>(i) * n + j0;
      for (int t = 0; t < 4; ++t) {
        _mm256_maskstore_ps(crow + 8 * t, mask[t], acc[t]);
      }
    }
  }
}

__attribute__((target("avx2"))) void MatMulTransposeAAvx2Rows(
    const float* a, const float* b, float* c, int m, int k, int n, int i0,
    int i1) {
  for (int j0 = 0; j0 < n; j0 += 32) {
    __m256i mask[4];
    for (int t = 0; t < 4; ++t) {
      int live = n - (j0 + 8 * t);
      live = live < 0 ? 0 : (live > 8 ? 8 : live);
      mask[t] = LaneMaskAvx2(live);
    }
    int i = i0;
    for (; i + 2 <= i1; i += 2) {
      __m256 acc[2][4];
      for (int r = 0; r < 2; ++r) {
        for (int t = 0; t < 4; ++t) acc[r][t] = _mm256_setzero_ps();
      }
      for (int p = 0; p < k; ++p) {
        const float* ap = a + static_cast<size_t>(p) * m + i;
        const float v0 = ap[0], v1 = ap[1];
        if (v0 == 0.0f && v1 == 0.0f) continue;
        const float* brow = b + static_cast<size_t>(p) * n + j0;
        const __m256 w0 = _mm256_set1_ps(v0);
        const __m256 w1 = _mm256_set1_ps(v1);
        for (int t = 0; t < 4; ++t) {
          const __m256 bv = _mm256_maskload_ps(brow + 8 * t, mask[t]);
          acc[0][t] = _mm256_add_ps(acc[0][t], _mm256_mul_ps(w0, bv));
          acc[1][t] = _mm256_add_ps(acc[1][t], _mm256_mul_ps(w1, bv));
        }
      }
      for (int r = 0; r < 2; ++r) {
        float* crow = c + static_cast<size_t>(i + r) * n + j0;
        for (int t = 0; t < 4; ++t) {
          _mm256_maskstore_ps(crow + 8 * t, mask[t], acc[r][t]);
        }
      }
    }
    for (; i < i1; ++i) {
      const float* acol = a + i;
      __m256 acc[4];
      for (int t = 0; t < 4; ++t) acc[t] = _mm256_setzero_ps();
      for (int p = 0; p < k; ++p) {
        const float av = acol[static_cast<size_t>(p) * m];
        if (av == 0.0f) continue;
        const __m256 avv = _mm256_set1_ps(av);
        const float* brow = b + static_cast<size_t>(p) * n + j0;
        for (int t = 0; t < 4; ++t) {
          const __m256 bv = _mm256_maskload_ps(brow + 8 * t, mask[t]);
          acc[t] = _mm256_add_ps(acc[t], _mm256_mul_ps(avv, bv));
        }
      }
      float* crow = c + static_cast<size_t>(i) * n + j0;
      for (int t = 0; t < 4; ++t) {
        _mm256_maskstore_ps(crow + 8 * t, mask[t], acc[t]);
      }
    }
  }
}

__attribute__((target("avx2"))) void MatMulTransposeBAvx2Cols(
    const float* a, const float* b, float* c, int m, int k, int n, int jb,
    int je) {
  // 8-column transposed pack of b, then 4-row sweeps with one ymm
  // accumulator chain per row; lane j accumulates its dot product in
  // ascending-p order, matching the scalar kernel bit-for-bit.
  std::vector<float> bt(static_cast<size_t>(k) * 8);
  for (int j0 = jb; j0 < je; j0 += 8) {
    const int jw = je - j0 < 8 ? je - j0 : 8;
    const __m256i mask = LaneMaskAvx2(jw);
    for (int p = 0; p < k; ++p) {
      float* row = bt.data() + static_cast<size_t>(p) * 8;
      for (int t = 0; t < jw; ++t) {
        row[t] = b[static_cast<size_t>(j0 + t) * k + p];
      }
      for (int t = jw; t < 8; ++t) row[t] = 0.0f;
    }
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (int p = 0; p < k; ++p) {
        const __m256 bv =
            _mm256_loadu_ps(bt.data() + static_cast<size_t>(p) * 8);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(a0[p]), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(a1[p]), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(a2[p]), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(a3[p]), bv));
      }
      _mm256_maskstore_ps(c + static_cast<size_t>(i) * n + j0, mask, acc0);
      _mm256_maskstore_ps(c + static_cast<size_t>(i + 1) * n + j0, mask, acc1);
      _mm256_maskstore_ps(c + static_cast<size_t>(i + 2) * n + j0, mask, acc2);
      _mm256_maskstore_ps(c + static_cast<size_t>(i + 3) * n + j0, mask, acc3);
    }
    for (; i < m; ++i) {
      const float* a0 = a + static_cast<size_t>(i) * k;
      __m256 acc = _mm256_setzero_ps();
      for (int p = 0; p < k; ++p) {
        const __m256 bv =
            _mm256_loadu_ps(bt.data() + static_cast<size_t>(p) * 8);
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a0[p]), bv));
      }
      _mm256_maskstore_ps(c + static_cast<size_t>(i) * n + j0, mask, acc);
    }
  }
}

}  // namespace

#pragma GCC diagnostic pop

#endif  // BLAZEIT_X86_64

// ---------------------------------------------------------------------------
// Dispatchers: pick the widest available ISA tier, then shard the range
// across the exec pool when the GEMM is big enough to pay for it.
// ---------------------------------------------------------------------------

namespace {

/// Runs `range_fn(r0, r1)` over [0, span) — sharded (always, for
/// decomposition stability) when the problem is large, single-range
/// otherwise. One gate for all three dispatchers so the sharding policy
/// can never drift between them.
template <typename RangeFn>
void DispatchRange(int m, int k, int n, int span, int shard,
                   const RangeFn& range_fn) {
  if (!WorthSharding(m, k, n, span, shard)) {
    range_fn(0, span);
    return;
  }
  exec::ParallelFor(span, shard,
                    [&](int64_t begin, int64_t end, int /*slot*/) {
                      range_fn(static_cast<int>(begin),
                               static_cast<int>(end));
                    });
}

}  // namespace

void MatMul(const float* a, const float* b, float* c, int m, int k, int n) {
  DispatchRange(m, k, n, m, kRowShard, [&](int i0, int i1) {
#ifdef BLAZEIT_X86_64
    if (CpuHasAvx512()) {
      GemmAvx512Rows({a, static_cast<size_t>(k), 1}, b, c, k, n, i0, i1);
      return;
    }
    if (CpuHasAvx2()) {
      MatMulAvx2Rows(a, b, c, k, n, i0, i1);
      return;
    }
#endif
    MatMulScalarRows(a, b, c, k, n, i0, i1);
  });
}

void MatMulTransposeA(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  DispatchRange(m, k, n, m, kRowShard, [&](int i0, int i1) {
#ifdef BLAZEIT_X86_64
    if (CpuHasAvx512()) {
      GemmAvx512Rows({a, 1, static_cast<size_t>(m)}, b, c, k, n, i0, i1);
      return;
    }
    if (CpuHasAvx2()) {
      MatMulTransposeAAvx2Rows(a, b, c, m, k, n, i0, i1);
      return;
    }
#endif
    MatMulTransposeAScalarRows(a, b, c, m, k, n, i0, i1);
  });
}

void MatMulTransposeB(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  // Sharded over *columns*: each column group packs its own transposed
  // tile of b, so column shards duplicate no packing work (row shards
  // would re-pack every tile per shard).
  DispatchRange(m, k, n, n, kColShard, [&](int j0, int j1) {
#ifdef BLAZEIT_X86_64
    if (CpuHasAvx512()) {
      MatMulTransposeBAvx512Cols(a, b, c, m, k, n, j0, j1);
      return;
    }
    if (CpuHasAvx2()) {
      MatMulTransposeBAvx2Cols(a, b, c, m, k, n, j0, j1);
      return;
    }
#endif
    MatMulTransposeBScalarCols(a, b, c, m, k, n, j0, j1);
  });
}

}  // namespace matmul
}  // namespace blazeit
