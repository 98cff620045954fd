#include "video/image.h"

#include <algorithm>
#include <cmath>

#include "video/raster_kernels.h"

namespace blazeit {

namespace {

/// Clamps a color to the image's documented [0,1] channel contract.
/// Rasterization is the only place pixel values enter an Image, so
/// clamping here (rather than in every caller) makes the contract hold
/// unconditionally; in-range colors pass through bit-unchanged.
Color ClampColor(const Color& color) {
  return Color{std::clamp(color.r, 0.0f, 1.0f), std::clamp(color.g, 0.0f, 1.0f),
               std::clamp(color.b, 0.0f, 1.0f)};
}

/// Writes `count` RGB pixels starting at `row` (interleaved layout).
void FillRowRgb(float* row, int count, const Color& color) {
  for (int x = 0; x < count; ++x) {
    row[3 * x + 0] = color.r;
    row[3 * x + 1] = color.g;
    row[3 * x + 2] = color.b;
  }
}

}  // namespace

Image::Image(int width, int height)
    : width_(width),
      height_(height),
      data_(static_cast<size_t>(width) * static_cast<size_t>(height) * 3,
            0.0f) {}

void Image::SetSize(int width, int height) {
  width_ = width;
  height_ = height;
  data_.resize(static_cast<size_t>(width) * static_cast<size_t>(height) * 3);
}

void Image::SetPixel(int x, int y, const Color& color) {
  Set(x, y, 0, color.r);
  Set(x, y, 1, color.g);
  Set(x, y, 2, color.b);
}

void Image::Fill(const Color& color) {
  if (Empty()) return;
  const Color c = ClampColor(color);
  // Scanline form: write the first row once, then replicate it. The
  // copies are straight memmoves, which beats a per-pixel SetPixel loop
  // by a wide margin and leaves nothing for the vectorizer to guess at.
  const size_t row_floats = static_cast<size_t>(width_) * 3;
  FillRowRgb(data_.data(), width_, c);
  for (int y = 1; y < height_; ++y) {
    std::copy_n(data_.data(), row_floats, data_.data() + y * row_floats);
  }
}

void Image::FillRect(const Rect& rect, const Color& color) {
  Rect r = rect.ClampToUnit();
  if (r.Empty() || Empty()) return;
  const Color c = ClampColor(color);
  // A pixel is covered iff its center lies inside the rect. Centers are
  // monotone in the pixel index, so coverage along each axis is one
  // contiguous span; find the span endpoints with the exact per-center
  // predicate (bit-identical to the historical per-pixel Contains scan),
  // then fill whole rows instead of testing every pixel.
  int x0 = std::clamp(static_cast<int>(std::floor(r.xmin * width_)), 0, width_);
  int x1 = std::clamp(static_cast<int>(std::ceil(r.xmax * width_)), 0, width_);
  int y0 = std::clamp(static_cast<int>(std::floor(r.ymin * height_)), 0,
                      height_);
  int y1 = std::clamp(static_cast<int>(std::ceil(r.ymax * height_)), 0,
                      height_);
  auto x_covered = [&](int x) {
    double cx = (x + 0.5) / width_;
    return cx >= r.xmin && cx < r.xmax;
  };
  auto y_covered = [&](int y) {
    double cy = (y + 0.5) / height_;
    return cy >= r.ymin && cy < r.ymax;
  };
  while (x0 < x1 && !x_covered(x0)) ++x0;
  while (x1 > x0 && !x_covered(x1 - 1)) --x1;
  while (y0 < y1 && !y_covered(y0)) ++y0;
  while (y1 > y0 && !y_covered(y1 - 1)) --y1;
  if (x0 >= x1 || y0 >= y1) return;

  const size_t row_floats = static_cast<size_t>(width_) * 3;
  float* first = data_.data() + y0 * row_floats + static_cast<size_t>(x0) * 3;
  const size_t span_floats = static_cast<size_t>(x1 - x0) * 3;
  FillRowRgb(first, x1 - x0, c);
  for (int y = y0 + 1; y < y1; ++y) {
    std::copy_n(first, span_floats,
                data_.data() + y * row_floats + static_cast<size_t>(x0) * 3);
  }
}

void Image::AddNoiseFromState(uint64_t state, double sigma) {
  if (sigma <= 0) return;
  // The per-element SplitMix64 stream and N(0,1) table live in the kernel
  // layer, which dispatches to an AVX-512 path with bit-identical output
  // where available.
  raster::AddGaussianNoiseClamp(data_.data(), data_.size(), state,
                                static_cast<float>(sigma));
}

double Image::MeanChannel(int c) const {
  if (Empty()) return 0.0;
  double sum = 0;
  const float* p = data_.data() + c;
  const size_t pixels = static_cast<size_t>(width_) * height_;
  for (size_t i = 0; i < pixels; ++i) sum += static_cast<double>(p[3 * i]);
  return sum / static_cast<double>(pixels);
}

void Image::MeanChannels(double out[3]) const {
  out[0] = out[1] = out[2] = 0.0;
  if (Empty()) return;
  // One fused pass whose sums equal MeanChannel's row-major serial sums
  // bit for bit: in lanes when every value allows an exact sum, serially
  // otherwise (raster::SumChannels).
  const size_t pixels = static_cast<size_t>(width_) * height_;
  double sums[3];
  raster::SumChannels(data_.data(), pixels, sums);
  // Divide (not multiply by reciprocal): fl(sum / n) != fl(sum * fl(1/n))
  // when n is not a power of two, and bit-identity with MeanChannel is
  // this method's contract.
  for (int c = 0; c < 3; ++c) out[c] = sums[c] / static_cast<double>(pixels);
}

Image Image::Crop(const Rect& rect) const {
  Rect r = rect.ClampToUnit();
  if (r.Empty() || Empty()) return Image();
  int x0 = std::clamp(static_cast<int>(std::floor(r.xmin * width_)), 0,
                      width_ - 1);
  int x1 = std::clamp(static_cast<int>(std::ceil(r.xmax * width_)), x0 + 1,
                      width_);
  int y0 = std::clamp(static_cast<int>(std::floor(r.ymin * height_)), 0,
                      height_ - 1);
  int y1 = std::clamp(static_cast<int>(std::ceil(r.ymax * height_)), y0 + 1,
                      height_);
  Image out(x1 - x0, y1 - y0);
  const size_t src_row = static_cast<size_t>(width_) * 3;
  const size_t dst_row = static_cast<size_t>(x1 - x0) * 3;
  for (int y = y0; y < y1; ++y) {
    std::copy_n(data_.data() + y * src_row + static_cast<size_t>(x0) * 3,
                dst_row, out.data_.data() + (y - y0) * dst_row);
  }
  return out;
}

}  // namespace blazeit
