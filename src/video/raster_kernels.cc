#include "video/raster_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define BLAZEIT_X86_64 1
#endif

#include "util/cpu_features.h"
#include "util/random.h"

namespace blazeit {
namespace raster {

namespace {
constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kSplitMixMul1 = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kSplitMixMul2 = 0x94d049bb133111ebULL;

// Feature pooling: channels are normalized as in Section 9 ("standard
// ImageNet normalization"). Noise-only cells average ~0.1 absolute
// deviation at typical sensor noise; objects reach 0.5-1.5, so the
// deviation channel is scaled to keep activations O(1).
constexpr int kPool = 2;
constexpr float kMean = 0.45f;
constexpr float kStd = 0.22f;
constexpr double kDevOffset = 0.1;
constexpr double kDevScale = 0.3;

/// The historical pooling loop over cells [cx0, cx1) of cell row `cy`.
void PoolCellsScalar(const float* pix, int grid_w, int cy, int cx0, int cx1,
                     const double means[3], float* dst) {
  const double mean_r = means[0];
  const double mean_g = means[1];
  const double mean_b = means[2];
  const int iw = grid_w * kPool;
  float* out = dst + (static_cast<size_t>(cy) * grid_w + cx0) * 4;
  for (int cx = cx0; cx < cx1; ++cx) {
    double r = 0, g = 0, b = 0, dev = 0;
    for (int dy = 0; dy < kPool; ++dy) {
      const float* row =
          pix + (static_cast<size_t>(cy * kPool + dy) * iw +
                 static_cast<size_t>(cx) * kPool) *
                    3;
      for (int dx = 0; dx < kPool; ++dx) {
        double pr = static_cast<double>(row[3 * dx + 0]);
        double pg = static_cast<double>(row[3 * dx + 1]);
        double pb = static_cast<double>(row[3 * dx + 2]);
        r += pr;
        g += pg;
        b += pb;
        dev += std::abs(pr - mean_r) + std::abs(pg - mean_g) +
               std::abs(pb - mean_b);
      }
    }
    const double inv = 1.0 / (kPool * kPool);
    *out++ = static_cast<float>(((static_cast<double>(r) * inv) -
                                 static_cast<double>(kMean)) /
                                static_cast<double>(kStd));
    *out++ = static_cast<float>(((static_cast<double>(g) * inv) -
                                 static_cast<double>(kMean)) /
                                static_cast<double>(kStd));
    *out++ = static_cast<float>(((static_cast<double>(b) * inv) -
                                 static_cast<double>(kMean)) /
                                static_cast<double>(kStd));
    *out++ = static_cast<float>((dev * inv - kDevOffset) / kDevScale);
  }
}
}  // namespace

const float* NoiseTable() {
  static float* table = [] {
    float* t = new float[kNoiseTableSize];
    Rng rng(0x6a09e667f3bcc908ULL);
    for (int i = 0; i < kNoiseTableSize; ++i) {
      t[i] = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    return t;
  }();
  return table;
}

void AddGaussianNoiseClampScalar(float* data, size_t n, uint64_t state,
                                 float sigma) {
  const float* table = NoiseTable();
  // The stream is written with the per-element state hoisted
  // (state_i = state + (i+1) * gamma, exact mod-2^64 arithmetic) instead
  // of a serial `state += gamma`, which breaks the loop-carried dependency
  // without changing a single index.
  for (size_t i = 0; i < n; ++i) {
    uint64_t z = state + (i + 1) * kSplitMixGamma;
    z = (z ^ (z >> 30)) * kSplitMixMul1;
    z = (z ^ (z >> 27)) * kSplitMixMul2;
    z ^= z >> 31;
    data[i] = std::clamp(data[i] + sigma * table[z & (kNoiseTableSize - 1)],
                         0.0f, 1.0f);
  }
}

void PoolFeatures2x2Scalar(const float* pix, int grid_w, int grid_h,
                           const double means[3], float* dst) {
  for (int cy = 0; cy < grid_h; ++cy) {
    PoolCellsScalar(pix, grid_w, cy, 0, grid_w, means, dst);
  }
}

#ifdef BLAZEIT_X86_64

// GCC 12's gather/shift intrinsics expand through an uninitialized
// placeholder vector, tripping -Wmaybe-uninitialized at -O2; the pattern
// is well-defined, so silence the false positive for the kernel body.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Eight SplitMix64 lanes at a time; bit-identical to the scalar stream
// (64-bit lane arithmetic is exact, the float update keeps multiply and
// add as separate intrinsics so no FMA contraction can occur).
__attribute__((target("avx512f,avx512dq"))) void AddGaussianNoiseClampAvx512(
    float* data, size_t n, uint64_t state, float sigma) {
  const float* table = NoiseTable();
  const __m512i gamma = _mm512_set1_epi64(static_cast<long long>(kSplitMixGamma));
  const __m512i mul1 = _mm512_set1_epi64(static_cast<long long>(kSplitMixMul1));
  const __m512i mul2 = _mm512_set1_epi64(static_cast<long long>(kSplitMixMul2));
  const __m512i mask = _mm512_set1_epi64(kNoiseTableSize - 1);
  const __m512i step = _mm512_set1_epi64(static_cast<long long>(8 * kSplitMixGamma));
  const __m256 sv = _mm256_set1_ps(sigma);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m512i lanes = _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8);
  __m512i s = _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(state)),
                               _mm512_mullo_epi64(lanes, gamma));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i z = s;
    s = _mm512_add_epi64(s, step);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), mul1);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), mul2);
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
    const __m512i idx = _mm512_and_si512(z, mask);
    const __m256 noise = _mm512_i64gather_ps(idx, table, 4);
    __m256 v = _mm256_loadu_ps(data + i);
    v = _mm256_add_ps(v, _mm256_mul_ps(sv, noise));
    v = _mm256_min_ps(_mm256_max_ps(v, zero), one);
    _mm256_storeu_ps(data + i, v);
  }
  if (i < n) AddGaussianNoiseClampScalar(data + i, n - i, state + i * kSplitMixGamma, sigma);
}

// Four SplitMix64 lanes at a time on the AVX2 tier. AVX2 has no 64-bit
// lane multiply, so it is composed from 32x32->64 partial products
// (exact mod-2^64 arithmetic, identical to the scalar stream); the float
// update mirrors the scalar expression with separate multiply and add.
__attribute__((target("avx2"))) static inline __m256i Mullo64Avx2(
    __m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) void AddGaussianNoiseClampAvx2(
    float* data, size_t n, uint64_t state, float sigma) {
  const float* table = NoiseTable();
  const __m256i mul1 = _mm256_set1_epi64x(static_cast<long long>(kSplitMixMul1));
  const __m256i mul2 = _mm256_set1_epi64x(static_cast<long long>(kSplitMixMul2));
  const __m256i mask = _mm256_set1_epi64x(kNoiseTableSize - 1);
  const __m256i step =
      _mm256_set1_epi64x(static_cast<long long>(4 * kSplitMixGamma));
  const __m128 sv = _mm_set1_ps(sigma);
  const __m128 zero = _mm_setzero_ps();
  const __m128 one = _mm_set1_ps(1.0f);
  __m256i s = _mm256_setr_epi64x(
      static_cast<long long>(state + 1 * kSplitMixGamma),
      static_cast<long long>(state + 2 * kSplitMixGamma),
      static_cast<long long>(state + 3 * kSplitMixGamma),
      static_cast<long long>(state + 4 * kSplitMixGamma));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i z = s;
    s = _mm256_add_epi64(s, step);
    z = Mullo64Avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), mul1);
    z = Mullo64Avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), mul2);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    const __m256i idx = _mm256_and_si256(z, mask);
    const __m128 noise = _mm256_i64gather_ps(table, idx, 4);
    __m128 v = _mm_loadu_ps(data + i);
    v = _mm_add_ps(v, _mm_mul_ps(sv, noise));
    v = _mm_min_ps(_mm_max_ps(v, zero), one);
    _mm_storeu_ps(data + i, v);
  }
  if (i < n) {
    AddGaussianNoiseClampScalar(data + i, n - i, state + i * kSplitMixGamma,
                                sigma);
  }
}

namespace {

/// permutex2var index tables that deinterleave eight cells of one pixel
/// row. The cells' 48 floats sit in three zmm loads v0, v1, v2; the value
/// at offset o = 3 * dx + channel of cell k is float 6k + o. `first[o]`
/// picks the lanes that lie in v0:v1 and `second[o]` keeps those and
/// fills the rest from v2, leaving cell k's value in lane k.
/// `interleave[h]` turns the channel-major (r|g, b|dev) pairs back into
/// cell-major output for cells 4h .. 4h + 3.
struct PoolPermutes {
  int32_t first[6][16];
  int32_t second[6][16];
  int32_t interleave[2][16];
};

constexpr PoolPermutes MakePoolPermutes() {
  PoolPermutes p{};
  for (int o = 0; o < 6; ++o) {
    for (int k = 0; k < 8; ++k) {
      const int src = 6 * k + o;
      p.first[o][k] = src < 32 ? src : 0;
      p.second[o][k] = src < 32 ? k : 16 + (src - 32);
    }
  }
  for (int h = 0; h < 2; ++h) {
    for (int j = 0; j < 16; ++j) {
      const int cell = 4 * h + j / 4;
      const int channel = j % 4;  // r, g from the first pair; b, dev second
      p.interleave[h][j] = 16 * (channel / 2) + 8 * (channel % 2) + cell;
    }
  }
  return p;
}

alignas(64) constexpr PoolPermutes kPoolPermutes = MakePoolPermutes();

/// Offset o of eight consecutive cells, widened to double (exact).
__attribute__((target("avx512f,avx512dq"))) inline __m512d PoolLane(
    __m512 v0, __m512 v1, __m512 v2, int o) {
  const __m512 t = _mm512_permutex2var_ps(
      v0, _mm512_load_si512(kPoolPermutes.first[o]), v1);
  const __m512 cells = _mm512_permutex2var_ps(
      t, _mm512_load_si512(kPoolPermutes.second[o]), v2);
  return _mm512_cvtps_pd(_mm512_castps512_ps256(cells));
}

}  // namespace

// Eight cells per vector, each in one double lane that runs the scalar
// cell expression: sums start at 0.0 and add pixels in (dy, dx) order,
// every deviation term is ((|r| + |g|) + |b|), multiply, subtract and
// divide stay separate intrinsics (no FMA, no reciprocal), and the
// double-to-float narrowing rounds like static_cast<float>.
__attribute__((target("avx512f,avx512dq"))) void PoolFeatures2x2Avx512(
    const float* pix, int grid_w, int grid_h, const double means[3],
    float* dst) {
  const __m512d mean_r = _mm512_set1_pd(means[0]);
  const __m512d mean_g = _mm512_set1_pd(means[1]);
  const __m512d mean_b = _mm512_set1_pd(means[2]);
  const __m512d inv = _mm512_set1_pd(1.0 / (kPool * kPool));
  const __m512d norm_mean = _mm512_set1_pd(static_cast<double>(kMean));
  const __m512d norm_std = _mm512_set1_pd(static_cast<double>(kStd));
  const __m512d dev_offset = _mm512_set1_pd(kDevOffset);
  const __m512d dev_scale = _mm512_set1_pd(kDevScale);
  const __m512i interleave_lo = _mm512_load_si512(kPoolPermutes.interleave[0]);
  const __m512i interleave_hi = _mm512_load_si512(kPoolPermutes.interleave[1]);
  const size_t row_floats = static_cast<size_t>(grid_w) * kPool * 3;
  for (int cy = 0; cy < grid_h; ++cy) {
    const float* rows = pix + static_cast<size_t>(cy) * kPool * row_floats;
    float* out = dst + static_cast<size_t>(cy) * grid_w * 4;
    int cx = 0;
    for (; cx + 8 <= grid_w; cx += 8) {
      __m512d r = _mm512_setzero_pd();
      __m512d g = _mm512_setzero_pd();
      __m512d b = _mm512_setzero_pd();
      __m512d dev = _mm512_setzero_pd();
      for (int dy = 0; dy < kPool; ++dy) {
        const float* row = rows + dy * row_floats + static_cast<size_t>(cx) * 6;
        const __m512 v0 = _mm512_loadu_ps(row);
        const __m512 v1 = _mm512_loadu_ps(row + 16);
        const __m512 v2 = _mm512_loadu_ps(row + 32);
        for (int dx = 0; dx < kPool; ++dx) {
          const __m512d pr = PoolLane(v0, v1, v2, 3 * dx + 0);
          const __m512d pg = PoolLane(v0, v1, v2, 3 * dx + 1);
          const __m512d pb = PoolLane(v0, v1, v2, 3 * dx + 2);
          r = _mm512_add_pd(r, pr);
          g = _mm512_add_pd(g, pg);
          b = _mm512_add_pd(b, pb);
          const __m512d rg =
              _mm512_add_pd(_mm512_abs_pd(_mm512_sub_pd(pr, mean_r)),
                            _mm512_abs_pd(_mm512_sub_pd(pg, mean_g)));
          dev = _mm512_add_pd(
              dev, _mm512_add_pd(rg, _mm512_abs_pd(_mm512_sub_pd(pb, mean_b))));
        }
      }
      const __m256 fr = _mm512_cvtpd_ps(_mm512_div_pd(
          _mm512_sub_pd(_mm512_mul_pd(r, inv), norm_mean), norm_std));
      const __m256 fg = _mm512_cvtpd_ps(_mm512_div_pd(
          _mm512_sub_pd(_mm512_mul_pd(g, inv), norm_mean), norm_std));
      const __m256 fb = _mm512_cvtpd_ps(_mm512_div_pd(
          _mm512_sub_pd(_mm512_mul_pd(b, inv), norm_mean), norm_std));
      const __m256 fd = _mm512_cvtpd_ps(_mm512_div_pd(
          _mm512_sub_pd(_mm512_mul_pd(dev, inv), dev_offset), dev_scale));
      const __m512 rg = _mm512_insertf32x8(_mm512_castps256_ps512(fr), fg, 1);
      const __m512 bd = _mm512_insertf32x8(_mm512_castps256_ps512(fb), fd, 1);
      float* cell = out + static_cast<size_t>(cx) * 4;
      _mm512_storeu_ps(cell, _mm512_permutex2var_ps(rg, interleave_lo, bd));
      _mm512_storeu_ps(cell + 16,
                       _mm512_permutex2var_ps(rg, interleave_hi, bd));
    }
    if (cx < grid_w) PoolCellsScalar(pix, grid_w, cy, cx, grid_w, means, dst);
  }
}

// Sixteen pixels (48 floats, three vectors) per step into six double
// accumulators; false, with `sums` unset, when a value breaks the
// exactness condition.
__attribute__((target("avx512f,avx512dq"))) bool SumChannelsAvx512(
    const float* pix, size_t pixels, double sums[3]) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  // The smallest nonzero value allowed: 2^(k+23), k = bit_width - 53.
  const __m512 min_nonzero = _mm512_set1_ps(
      std::ldexp(1.0f, static_cast<int>(std::bit_width(pixels)) - 30));
  __m512d acc[6];
  for (__m512d& a : acc) a = _mm512_setzero_pd();
  __mmask16 ok = 0xFFFF;
  const float* end = pix + pixels * 3;
  for (const float* p = pix; p < end; p += 48) {
    for (int v = 0; v < 3; ++v) {
      const __m512 x = _mm512_loadu_ps(p + 16 * v);
      ok &= (_mm512_cmp_ps_mask(x, min_nonzero, _CMP_GE_OQ) &
             _mm512_cmp_ps_mask(x, one, _CMP_LE_OQ)) |
            _mm512_cmp_ps_mask(x, zero, _CMP_EQ_OQ);
      acc[2 * v] = _mm512_add_pd(
          acc[2 * v], _mm512_cvtps_pd(_mm512_castps512_ps256(x)));
      acc[2 * v + 1] = _mm512_add_pd(
          acc[2 * v + 1],
          _mm512_cvtps_pd(_mm512_extractf32x8_ps(x, 1)));
    }
  }
  if (ok != 0xFFFF) return false;
  // Lane j of the stored accumulators summed the floats at offset j of
  // every 48-float step, all of channel j % 3. Any order is exact here.
  alignas(64) double lanes[6 * 8];
  for (int a = 0; a < 6; ++a) _mm512_store_pd(lanes + 8 * a, acc[a]);
  sums[0] = sums[1] = sums[2] = 0.0;
  for (int j = 0; j < 6 * 8; ++j) sums[j % 3] += lanes[j];
  return true;
}

#pragma GCC diagnostic pop

#endif  // BLAZEIT_X86_64

bool SumChannels(const float* pix, size_t pixels, double sums[3]) {
#ifdef BLAZEIT_X86_64
  if (CpuHasAvx512() && pixels % 16 == 0 &&
      SumChannelsAvx512(pix, pixels, sums)) {
    return true;
  }
#endif
  double r = 0, g = 0, b = 0;
  for (size_t i = 0; i < pixels; ++i) {
    r += static_cast<double>(pix[3 * i + 0]);
    g += static_cast<double>(pix[3 * i + 1]);
    b += static_cast<double>(pix[3 * i + 2]);
  }
  sums[0] = r;
  sums[1] = g;
  sums[2] = b;
  return false;
}

void AddGaussianNoiseClamp(float* data, size_t n, uint64_t state,
                           float sigma) {
#ifdef BLAZEIT_X86_64
  if (CpuHasAvx512()) {
    AddGaussianNoiseClampAvx512(data, n, state, sigma);
    return;
  }
  if (CpuHasAvx2()) {
    AddGaussianNoiseClampAvx2(data, n, state, sigma);
    return;
  }
#endif
  AddGaussianNoiseClampScalar(data, n, state, sigma);
}

void PoolFeatures2x2(const float* pix, int grid_w, int grid_h,
                     const double means[3], float* dst) {
#ifdef BLAZEIT_X86_64
  if (CpuHasAvx512()) {
    PoolFeatures2x2Avx512(pix, grid_w, grid_h, means, dst);
    return;
  }
#endif
  PoolFeatures2x2Scalar(pix, grid_w, grid_h, means, dst);
}

}  // namespace raster
}  // namespace blazeit
