#ifndef BLAZEIT_VIDEO_IMAGE_H_
#define BLAZEIT_VIDEO_IMAGE_H_

#include <cstdint>
#include <vector>

#include "video/geometry.h"

namespace blazeit {

/// RGB color with channel values in [0, 1].
struct Color {
  float r = 0;
  float g = 0;
  float b = 0;

  Color Scaled(float factor) const {
    return Color{r * factor, g * factor, b * factor};
  }
};

/// A small dense RGB raster, row-major, float channels in [0, 1]. This is
/// the pixel substrate for everything that needs real image content: the
/// specialized-NN features, the content-based (e.g. redness) UDF filters,
/// and the `content` field of FrameQL records.
class Image {
 public:
  Image() : width_(0), height_(0) {}
  Image(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  bool Empty() const { return width_ == 0 || height_ == 0; }

  /// Reshapes in place without preserving contents (the backing buffer is
  /// reused when the pixel count allows). Lets render loops recycle one
  /// scratch Image instead of allocating per frame.
  void SetSize(int width, int height);

  /// Channel value at pixel (x, y); c in {0: red, 1: green, 2: blue}.
  float At(int x, int y, int c) const {
    return data_[Index(x, y, c)];
  }
  void Set(int x, int y, int c, float v) { data_[Index(x, y, c)] = v; }
  void SetPixel(int x, int y, const Color& color);

  /// Fills the whole image with a solid color. The color is clamped to the
  /// [0,1] channel contract at the fill site (rasterization is where pixel
  /// values enter an Image, so out-of-range inputs — e.g. an extreme
  /// lighting factor — can never leak out-of-contract values into NN
  /// features or content UDFs).
  void Fill(const Color& color);

  /// Fills the normalized-coordinate rectangle with a solid color. Pixels
  /// are covered if their center lies inside the rectangle. The color is
  /// clamped to [0,1] as in Fill.
  void FillRect(const Rect& rect, const Color& color);

  /// Adds i.i.d. Gaussian noise (clamped to [0,1]) to every channel from
  /// one SplitMix64 stream seeded by `state` — the renderer passes the
  /// first draw of the frame's engine (see Mt19937_64FirstDraw), so
  /// `AddNoiseFromState(rng.engine()(), sigma)` is the same stream.
  void AddNoiseFromState(uint64_t state, double sigma);

  /// Mean of channel `c` over the whole image.
  double MeanChannel(int c) const;
  /// All three channel means in one pass over the pixels; bit-identical to
  /// calling MeanChannel(0..2) but 3x less memory traffic (used by the
  /// fused feature-extraction path).
  void MeanChannels(double out[3]) const;

  /// Crops the normalized-coordinate rectangle into a new image (pixel
  /// bounds are rounded outward; the result is at least 1x1 if the source
  /// is non-empty and the rect is non-empty).
  Image Crop(const Rect& rect) const;

  const std::vector<float>& data() const { return data_; }

 private:
  size_t Index(int x, int y, int c) const {
    return (static_cast<size_t>(y) * static_cast<size_t>(width_) +
            static_cast<size_t>(x)) * 3 + static_cast<size_t>(c);
  }

  int width_;
  int height_;
  std::vector<float> data_;
};

}  // namespace blazeit

#endif  // BLAZEIT_VIDEO_IMAGE_H_
