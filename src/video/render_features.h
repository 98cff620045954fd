#ifndef BLAZEIT_VIDEO_RENDER_FEATURES_H_
#define BLAZEIT_VIDEO_RENDER_FEATURES_H_

#include <cstdint>

#include "video/image.h"
#include "video/synthetic_video.h"

namespace blazeit {

/// Number of feature channels per grid cell produced by
/// RenderFrameFeatures: pooled mean R, G, B plus the absolute-deviation
/// foreground channel.
inline constexpr int kFeatureChannels = 4;

/// Fused render→feature kernel: rasterizes `frame` at twice the grid
/// resolution and writes the pooled 4-channel feature row — the
/// specialized-NN input representation — directly into `dst`
/// (grid_w * grid_h * kFeatureChannels floats, e.g. a Matrix::Row).
///
/// No intermediate feature vector is built: batch loops hand in the NN
/// input row and an optional scratch Image to reuse across frames (no
/// per-frame allocation). Output bits are identical to the historical
/// nn/ FrameFeatures: same render, same channel-mean accumulation order,
/// same pooling and normalization expressions — so cached per-frame NN
/// artifacts remain valid across the fusion.
void RenderFrameFeatures(const SyntheticVideo& video, int64_t frame,
                         int grid_w, int grid_h, float* dst,
                         Image* scratch = nullptr);

/// As above with the frame's noise seed given: `noise_seed` must be
/// video.NoiseSeed(frame). Batch loops compute a whole run's seeds with
/// one SyntheticVideo::NoiseSeeds call and render each frame through this.
void RenderFrameFeatures(const SyntheticVideo& video, int64_t frame,
                         uint64_t noise_seed, int grid_w, int grid_h,
                         float* dst, Image* scratch);

}  // namespace blazeit

#endif  // BLAZEIT_VIDEO_RENDER_FEATURES_H_
