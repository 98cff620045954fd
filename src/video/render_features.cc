#include "video/render_features.h"

#include "video/raster_kernels.h"

namespace blazeit {

namespace {
// The paper's tiny ResNet learns local pooled features in its first
// convolutions; our fixed equivalent renders at 2x the grid resolution
// and pools each 2x2 block into (mean R, mean G, mean B, mean
// |deviation from the frame average|). The deviation channel is a
// foreground map — counting objects is then a near-linear function of
// it — while pooling averages the sensor noise down. The normalization
// lives with the pooling kernel (raster::PoolFeatures2x2).
constexpr int kPool = 2;
}  // namespace

void RenderFrameFeatures(const SyntheticVideo& video, int64_t frame,
                         int grid_w, int grid_h, float* dst,
                         Image* scratch) {
  RenderFrameFeatures(video, frame, video.NoiseSeed(frame), grid_w, grid_h,
                      dst, scratch);
}

void RenderFrameFeatures(const SyntheticVideo& video, int64_t frame,
                         uint64_t noise_seed, int grid_w, int grid_h,
                         float* dst, Image* scratch) {
  Image local;
  Image& img = scratch != nullptr ? *scratch : local;
  video.RenderFrameRegionInto(frame, Rect{0, 0, 1, 1}, grid_w * kPool,
                              grid_h * kPool, noise_seed, &img);
  double means[3];
  img.MeanChannels(means);
  raster::PoolFeatures2x2(img.data().data(), grid_w, grid_h, means, dst);
}

}  // namespace blazeit
