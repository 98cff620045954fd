#ifndef BLAZEIT_VIDEO_RASTER_KERNELS_H_
#define BLAZEIT_VIDEO_RASTER_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace blazeit {
namespace raster {

/// The raster kernel layer: the per-pixel inner loops of Image and of the
/// feature pooling behind RenderFrameFeatures, factored out so they can be
/// runtime-dispatched between a portable scalar path and an AVX-512 path.
/// Both paths are bit-identical by construction — every lane computes
/// exactly the scalar expression (separate multiply and add, no FMA
/// contraction, no reassociation), so whichever path runs,
/// the persistent artifact store sees the same bytes. The golden suite
/// (tests/raster_golden_test.cc) pins this with an independent reference
/// implementation; tests can force the scalar path with
/// BLAZEIT_DISABLE_SIMD=1 (see util/cpu_features.h).

/// Size of the shared N(0,1) lookup table behind AddGaussianNoiseClamp.
inline constexpr int kNoiseTableBits = 14;
inline constexpr int kNoiseTableSize = 1 << kNoiseTableBits;

/// The shared Gaussian deviate table (lazily built, process lifetime).
const float* NoiseTable();

/// data[i] = clamp(data[i] + sigma * N(0,1), 0, 1) for i in [0, n), with
/// the i-th deviate drawn from NoiseTable() at the index produced by the
/// SplitMix64 stream seeded with `state` (one step per element). This is
/// the hottest loop of the renderer; the AVX-512 path computes the same
/// stream eight lanes at a time and gathers from the same table, and the
/// AVX2 tier four lanes at a time (64-bit multiplies composed from
/// 32x32->64 partial products, still exact mod-2^64 arithmetic).
void AddGaussianNoiseClamp(float* data, size_t n, uint64_t state,
                           float sigma);

/// Scalar reference path (always available; used by the dispatcher as the
/// fallback and by tests as the parity baseline).
void AddGaussianNoiseClampScalar(float* data, size_t n, uint64_t state,
                                 float sigma);

/// Per-channel sums of `pixels` interleaved RGB pixels, bit for bit the
/// serial loop `sums[c] += double(pix[3 * i + c])` for i = 0, 1, ...
/// The AVX-512 path sums in lanes instead, which is exact under this
/// condition: with k = bit_width(pixels) - 53, every value is 0 or lies in
/// [2^(k+23), 1]. A float at or above 2^(k+23) is a multiple of its unit
/// in the last place, which is at least 2^k, so every partial sum, in any
/// order, is a multiple of 2^k below pixels < 2^(53+k), and a double holds
/// each one exactly: no addition rounds, and every order gives the exact
/// sum the serial loop also reaches. A value outside the condition (a
/// tiny positive, one above 1, a NaN, a negative), a pixel count that is
/// not a multiple of the 16-pixel step, or a CPU without AVX-512 runs the
/// serial loop. Returns true when the lane sums were used.
bool SumChannels(const float* pix, size_t pixels, double sums[3]);

/// Pools an RGB image of (2 * grid_w) x (2 * grid_h) pixels (`pix`,
/// row-major, channels interleaved) into grid_w * grid_h cells of four
/// floats written row-major to `dst`: the normalized mean R, G and B of
/// the cell's 2x2 block and its normalized mean absolute deviation from
/// the image's channel means `means`. Each cell sums its four pixels in
/// double in (dy, dx) order and normalizes with real divisions; the
/// AVX-512 path pools eight cells per vector with exactly those lane
/// expressions and finishes each row's last grid_w % 8 cells on the
/// scalar path.
void PoolFeatures2x2(const float* pix, int grid_w, int grid_h,
                     const double means[3], float* dst);

/// Scalar reference path of PoolFeatures2x2.
void PoolFeatures2x2Scalar(const float* pix, int grid_w, int grid_h,
                           const double means[3], float* dst);

}  // namespace raster
}  // namespace blazeit

#endif  // BLAZEIT_VIDEO_RASTER_KERNELS_H_
