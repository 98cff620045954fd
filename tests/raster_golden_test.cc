// Golden/property tests pinning the raster semantics that the vectorized
// kernel layer (video/raster_kernels.h) must preserve bit-for-bit. Each
// test carries its own straight-line reference implementation — the
// pre-vectorization scalar code — and compares Image's (possibly SIMD)
// output against it exactly, so a kernel rewrite that changes even one
// output bit fails here instead of silently invalidating the persistent
// artifact store.
//
// Bit-exactness policy (see README "Hot-path kernels"): Fill, FillRect,
// Crop, and the noise kernel are pinned to the original scalar semantics —
// their vectorized paths must be bit-identical.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "video/image.h"
#include "video/raster_kernels.h"

namespace blazeit {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations (the original per-pixel scalar code).
// ---------------------------------------------------------------------------

// Original FillRect: per-pixel center-containment test over the clamped
// pixel bounding box. Colors are clamped to [0,1] at the fill site (the
// PR 3 contract fix; in-range colors are unchanged by the clamp).
void RefFillRect(Image* img, const Rect& rect, const Color& color) {
  const int width = img->width(), height = img->height();
  Rect r = rect.ClampToUnit();
  if (r.Empty()) return;
  Color cl{std::clamp(color.r, 0.0f, 1.0f), std::clamp(color.g, 0.0f, 1.0f),
           std::clamp(color.b, 0.0f, 1.0f)};
  int x0 = std::clamp(static_cast<int>(std::floor(r.xmin * width)), 0, width);
  int x1 = std::clamp(static_cast<int>(std::ceil(r.xmax * width)), 0, width);
  int y0 = std::clamp(static_cast<int>(std::floor(r.ymin * height)), 0, height);
  int y1 = std::clamp(static_cast<int>(std::ceil(r.ymax * height)), 0, height);
  for (int y = y0; y < y1; ++y) {
    double cy = (y + 0.5) / height;
    for (int x = x0; x < x1; ++x) {
      double cx = (x + 0.5) / width;
      if (r.Contains(cx, cy)) img->SetPixel(x, y, cl);
    }
  }
}

// Original Crop: pixel bounds rounded outward, at least 1x1.
Image RefCrop(const Image& src, const Rect& rect) {
  Rect r = rect.ClampToUnit();
  if (r.Empty() || src.Empty()) return Image();
  const int width = src.width(), height = src.height();
  int x0 = std::clamp(static_cast<int>(std::floor(r.xmin * width)), 0,
                      width - 1);
  int x1 = std::clamp(static_cast<int>(std::ceil(r.xmax * width)), x0 + 1,
                      width);
  int y0 = std::clamp(static_cast<int>(std::floor(r.ymin * height)), 0,
                      height - 1);
  int y1 = std::clamp(static_cast<int>(std::ceil(r.ymax * height)), y0 + 1,
                      height);
  Image out(x1 - x0, y1 - y0);
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      for (int c = 0; c < 3; ++c) out.Set(x - x0, y - y0, c, src.At(x, y, c));
    }
  }
  return out;
}

// Original AddNoise: serial SplitMix64 index stream into the shared
// N(0,1) lookup table (14-bit), one step per channel, clamped to [0,1].
void RefAddNoise(std::vector<float>* data, uint64_t state, double sigma) {
  constexpr int kNoiseTableBits = 14;
  constexpr int kNoiseTableSize = 1 << kNoiseTableBits;
  static std::vector<float> table = [] {
    std::vector<float> t(kNoiseTableSize);
    Rng rng(0x6a09e667f3bcc908ULL);
    for (int i = 0; i < kNoiseTableSize; ++i) {
      t[static_cast<size_t>(i)] = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    return t;
  }();
  const float s = static_cast<float>(sigma);
  for (float& v : *data) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    v = std::clamp(v + s * table[z & (kNoiseTableSize - 1)], 0.0f, 1.0f);
  }
}

// Original 2x2 feature pooling (the RenderFrameFeatures loop before it
// moved behind raster::PoolFeatures2x2): per cell, double sums of the four
// pixels in (dy, dx) order, the absolute deviation from the image means,
// then ((mean - 0.45) / 0.22) per color and ((dev / 4 - 0.1) / 0.3).
std::vector<float> RefPoolFeatures(const std::vector<float>& pix, int grid_w,
                                   int grid_h, const double means[3]) {
  const int iw = grid_w * 2;
  std::vector<float> out;
  for (int cy = 0; cy < grid_h; ++cy) {
    for (int cx = 0; cx < grid_w; ++cx) {
      double sum[3] = {0, 0, 0};
      double dev = 0;
      for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
          const size_t at =
              (static_cast<size_t>(cy * 2 + dy) * iw + cx * 2 + dx) * 3;
          double p[3];
          for (int c = 0; c < 3; ++c) {
            p[c] = static_cast<double>(pix[at + c]);
            sum[c] += p[c];
          }
          dev += std::abs(p[0] - means[0]) + std::abs(p[1] - means[1]) +
                 std::abs(p[2] - means[2]);
        }
      }
      for (int c = 0; c < 3; ++c) {
        out.push_back(static_cast<float>(
            ((sum[c] * 0.25) - static_cast<double>(0.45f)) /
            static_cast<double>(0.22f)));
      }
      out.push_back(static_cast<float>((dev * 0.25 - 0.1) / 0.3));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

Image RandomImage(Rng* rng, int w, int h) {
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < 3; ++c) {
        img.Set(x, y, c, static_cast<float>(rng->Uniform()));
      }
    }
  }
  return img;
}

void ExpectBitIdentical(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  ASSERT_EQ(a.data().size(), b.data().size());
  for (size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "channel index " << i;
  }
}

Rect RandomRect(Rng* rng) {
  // Mix of in-range, out-of-range, and degenerate rects.
  double x0 = rng->Uniform(-0.3, 1.1);
  double y0 = rng->Uniform(-0.3, 1.1);
  double w = rng->Uniform(-0.05, 0.9);
  double h = rng->Uniform(-0.05, 0.9);
  return Rect{x0, y0, x0 + w, y0 + h};
}

// Image sizes chosen to cover SIMD width boundaries: totals that are not
// multiples of 8/16 exercise kernel tails.
constexpr int kSizes[][2] = {{1, 1}, {3, 2}, {5, 7},  {8, 8},
                             {13, 9}, {16, 16}, {32, 32}, {64, 64}};

// ---------------------------------------------------------------------------
// FillRect golden: center-coverage semantics, bit-exact.
// ---------------------------------------------------------------------------

TEST(RasterGoldenTest, FillRectMatchesPerPixelReference) {
  Rng rng(0x517cc1b727220a95ULL);
  for (auto [w, h] : kSizes) {
    for (int trial = 0; trial < 50; ++trial) {
      Rect rect = RandomRect(&rng);
      Color color{static_cast<float>(rng.Uniform(-0.2, 1.4)),
                  static_cast<float>(rng.Uniform(-0.2, 1.4)),
                  static_cast<float>(rng.Uniform(-0.2, 1.4))};
      Image got = RandomImage(&rng, w, h);
      Image want = got;
      got.FillRect(rect, color);
      RefFillRect(&want, rect, color);
      SCOPED_TRACE(::testing::Message()
                   << w << "x" << h << " rect " << rect.ToString());
      ExpectBitIdentical(want, got);
    }
  }
}

TEST(RasterGoldenTest, FillRectCentersOnBoundary) {
  // Rect edges exactly on pixel centers: Contains is half-open
  // ([xmin, xmax)), so a pixel whose center sits on xmin is covered and a
  // pixel whose center sits on xmax is not.
  Image img(4, 4);
  // Pixel centers at 0.125, 0.375, 0.625, 0.875.
  img.FillRect(Rect{0.375, 0.375, 0.875, 0.875}, Color{1, 1, 1});
  EXPECT_FLOAT_EQ(img.At(0, 1, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.At(1, 1, 0), 1.0f);  // center 0.375 == xmin: inside
  EXPECT_FLOAT_EQ(img.At(2, 2, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.At(3, 3, 0), 0.0f);  // center 0.875 == xmax: outside
}

TEST(RasterGoldenTest, FillMatchesReference) {
  Rng rng(0xa0761d6478bd642fULL);
  for (auto [w, h] : kSizes) {
    Color color{static_cast<float>(rng.Uniform(-0.2, 1.4)),
                static_cast<float>(rng.Uniform(-0.2, 1.4)),
                static_cast<float>(rng.Uniform(-0.2, 1.4))};
    Color cl{std::clamp(color.r, 0.0f, 1.0f), std::clamp(color.g, 0.0f, 1.0f),
             std::clamp(color.b, 0.0f, 1.0f)};
    Image img(w, h);
    img.Fill(color);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        ASSERT_EQ(img.At(x, y, 0), cl.r);
        ASSERT_EQ(img.At(x, y, 1), cl.g);
        ASSERT_EQ(img.At(x, y, 2), cl.b);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crop golden: outward rounding, bit-exact copy.
// ---------------------------------------------------------------------------

TEST(RasterGoldenTest, CropMatchesReference) {
  Rng rng(0xe7037ed1a0b428dbULL);
  for (auto [w, h] : kSizes) {
    Image src = RandomImage(&rng, w, h);
    for (int trial = 0; trial < 30; ++trial) {
      Rect rect = RandomRect(&rng);
      Image want = RefCrop(src, rect);
      Image got = src.Crop(rect);
      SCOPED_TRACE(::testing::Message()
                   << w << "x" << h << " rect " << rect.ToString());
      ExpectBitIdentical(want, got);
    }
  }
}

TEST(RasterGoldenTest, CropRoundingPinned) {
  // xmin 0.21 on a 10-wide image floors to pixel 2; xmax 0.69 ceils to 7.
  Image src = RandomImage([] { static Rng r(5); return &r; }(), 10, 10);
  Image crop = src.Crop(Rect{0.21, 0.21, 0.69, 0.69});
  EXPECT_EQ(crop.width(), 5);
  EXPECT_EQ(crop.height(), 5);
  EXPECT_EQ(crop.At(0, 0, 0), src.At(2, 2, 0));
  // A sliver rect still produces at least 1x1.
  EXPECT_EQ(src.Crop(Rect{0.999, 0.999, 1.0, 1.0}).width(), 1);
}

// ---------------------------------------------------------------------------
// AddNoise golden: the serial SplitMix64 stream, bit-exact (this is the
// SIMD-vs-scalar parity check for the dispatched noise kernel).
// ---------------------------------------------------------------------------

TEST(RasterGoldenTest, AddNoiseMatchesSerialReference) {
  for (auto [w, h] : kSizes) {
    for (uint64_t seed : {1ULL, 42ULL, 0xfeedfaceULL}) {
      for (double sigma : {0.01, 0.04, 0.3}) {
        Image img(w, h);
        img.Fill(Color{0.45f, 0.5f, 0.55f});
        std::vector<float> want = img.data();
        // The renderer seeds a frame's whole noise stream with one engine
        // draw; replicate that for both sides.
        Rng rng_img(seed), rng_ref(seed);
        img.AddNoiseFromState(rng_img.engine()(), sigma);
        RefAddNoise(&want, rng_ref.engine()(), sigma);
        SCOPED_TRACE(::testing::Message() << w << "x" << h << " seed " << seed
                                          << " sigma " << sigma);
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(img.data()[i], want[i]) << "channel index " << i;
        }
      }
    }
  }
}

TEST(RasterGoldenTest, AddNoiseScalarKernelMatchesReference) {
  // Pin the scalar fallback kernel directly (not just whatever path the
  // dispatcher picked): on AVX-512 hosts the dispatched test above never
  // executes the scalar loop, but non-AVX-512 hosts replay store
  // artifacts produced by it, so a scalar regression must fail here on
  // every machine.
  for (size_t n : {1u, 7u, 8u, 31u, 3 * 64u * 64u}) {
    for (uint64_t state : {0ULL, 0x0123456789abcdefULL}) {
      std::vector<float> got(n, 0.45f), want(n, 0.45f);
      raster::AddGaussianNoiseClampScalar(got.data(), n, state, 0.07f);
      RefAddNoise(&want, state, 0.07f);
      SCOPED_TRACE(::testing::Message() << "n " << n << " state " << state);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "index " << i;
      }
    }
  }
}

TEST(RasterGoldenTest, AddNoiseZeroSigmaIsIdentity) {
  Image img(7, 5);
  img.Fill(Color{0.3f, 0.6f, 0.9f});
  std::vector<float> before = img.data();
  Rng rng(11);
  img.AddNoiseFromState(rng.engine()(), 0.0);
  EXPECT_EQ(img.data(), before);
}

// ---------------------------------------------------------------------------
// Feature pooling golden: the dispatched kernel and its scalar path against
// the historical loop, compared bit for bit.
// ---------------------------------------------------------------------------

TEST(RasterGoldenTest, PoolFeaturesMatchesHistoricalLoop) {
  // 16x16 and 32x32 are the engine's rasters and 8x1 one vector; 12x7,
  // 20x20 and 1x1 leave rows whose last cells run on the scalar tail.
  constexpr int kGrids[][2] = {{16, 16}, {32, 32}, {8, 1},
                               {12, 7},  {20, 20}, {1, 1}};
  Rng rng(0x2545f4914f6cdd1dULL);
  for (auto [gw, gh] : kGrids) {
    for (int trial = 0; trial < 20; ++trial) {
      // Random pixels mixed with exact 0, exact 1, and values below 1e-6.
      std::vector<float> pix(static_cast<size_t>(gw) * gh * 4 * 3);
      for (float& v : pix) {
        const double kind = rng.Uniform();
        v = kind < 0.1   ? 0.0f
            : kind < 0.2 ? 1.0f
            : kind < 0.3 ? static_cast<float>(rng.Uniform(0.0, 1e-6))
                         : static_cast<float>(rng.Uniform());
      }
      const double means[3] = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      const std::vector<float> want = RefPoolFeatures(pix, gw, gh, means);
      std::vector<float> got(want.size()), scalar(want.size());
      raster::PoolFeatures2x2(pix.data(), gw, gh, means, got.data());
      raster::PoolFeatures2x2Scalar(pix.data(), gw, gh, means, scalar.data());
      SCOPED_TRACE(::testing::Message() << gw << "x" << gh << " trial "
                                        << trial);
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(want[i]),
                  std::bit_cast<uint32_t>(got[i]))
            << "dispatched, index " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(want[i]),
                  std::bit_cast<uint32_t>(scalar[i]))
            << "scalar, index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace blazeit
