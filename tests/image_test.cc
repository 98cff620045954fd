#include "video/image.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "util/cpu_features.h"
#include "util/random.h"
#include "video/datasets.h"
#include "video/raster_kernels.h"
#include "video/synthetic_video.h"

namespace blazeit {
namespace {

TEST(ImageTest, ConstructZeroed) {
  Image img(4, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.At(2, 1, 0), 0.0f);
  EXPECT_FALSE(img.Empty());
  EXPECT_TRUE(Image().Empty());
}

TEST(ImageTest, FillSetsEveryPixel) {
  Image img(5, 5);
  img.Fill(Color{0.2f, 0.4f, 0.6f});
  EXPECT_FLOAT_EQ(img.At(0, 0, 0), 0.2f);
  EXPECT_FLOAT_EQ(img.At(4, 4, 1), 0.4f);
  EXPECT_FLOAT_EQ(img.At(2, 3, 2), 0.6f);
}

TEST(ImageTest, FillRectCoversCenterContainedPixels) {
  Image img(10, 10);
  img.FillRect(Rect{0.0, 0.0, 0.5, 0.5}, Color{1, 1, 1});
  // Pixels 0..4 have centers < 0.5; pixel 5 center is 0.55.
  EXPECT_FLOAT_EQ(img.At(4, 4, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.At(5, 5, 0), 0.0f);
}

TEST(ImageTest, FillRectOutOfBoundsClamped) {
  Image img(4, 4);
  img.FillRect(Rect{-1.0, -1.0, 2.0, 2.0}, Color{1, 0, 0});
  EXPECT_FLOAT_EQ(img.At(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.At(3, 3, 0), 1.0f);
}

TEST(ImageTest, MeanChannel) {
  Image img(2, 2);
  img.Set(0, 0, 0, 1.0f);
  EXPECT_NEAR(img.MeanChannel(0), 0.25, 1e-6);
  EXPECT_NEAR(img.MeanChannel(1), 0.0, 1e-6);
}

TEST(ImageTest, MeanChannelsBitIdenticalToPerChannel) {
  // The fused pass must match MeanChannel exactly, including at sizes
  // whose pixel count is not a power of two (where a reciprocal multiply
  // would differ from the division in the last bit).
  Rng rng(31);
  for (auto [w, h] : {std::pair{48, 48}, {13, 9}, {64, 64}, {7, 5}}) {
    Image img(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int c = 0; c < 3; ++c) {
          img.Set(x, y, c, static_cast<float>(rng.Uniform()));
        }
      }
    }
    double fused[3];
    img.MeanChannels(fused);
    for (int c = 0; c < 3; ++c) {
      ASSERT_EQ(fused[c], img.MeanChannel(c)) << w << "x" << h << " c " << c;
    }
  }
}

/// The serial per-channel double sums MeanChannels must reproduce, each
/// divided by the pixel count, compared as bits.
void ExpectSerialMeans(const Image& img, const std::string& what) {
  const size_t pixels = static_cast<size_t>(img.width()) * img.height();
  double got[3];
  img.MeanChannels(got);
  for (int c = 0; c < 3; ++c) {
    double sum = 0;
    for (size_t i = 0; i < pixels; ++i) {
      sum += static_cast<double>(img.data()[3 * i + static_cast<size_t>(c)]);
    }
    const double want = sum / static_cast<double>(pixels);
    ASSERT_EQ(std::bit_cast<uint64_t>(got[c]), std::bit_cast<uint64_t>(want))
        << what << " channel " << c;
  }
}

// Rendered frames of all six streams at the 32x32 the 16-grid features
// render at: MeanChannels equals the serial sums bit for bit, and on the
// AVX-512 tier nearly every frame takes the exact lane sums (a kernel that
// always fell back would pass the equality alone).
TEST(ImageTest, MeanChannelsMatchSerialSumsOnStreamFrames) {
  Image img;
  int64_t frames = 0;
  int64_t lane_sums = 0;
  for (const StreamConfig& config : AllStreamConfigs()) {
    for (uint64_t seed : {1, 2}) {
      auto video = SyntheticVideo::Create(config, seed, 600).value();
      for (int64_t t = 0; t < video->num_frames(); t += 3) {
        video->RenderFrameRegionInto(t, Rect{0, 0, 1, 1}, 32, 32, &img);
        ExpectSerialMeans(img, config.name + " frame " + std::to_string(t));
        double sums[3];
        lane_sums += raster::SumChannels(img.data().data(), 32 * 32, sums);
        ++frames;
      }
    }
  }
  if (CpuHasAvx512()) {
    EXPECT_GE(lane_sums, frames * 9 / 10) << lane_sums << " of " << frames;
  } else {
    EXPECT_EQ(lane_sums, 0);
  }
}

// Images the lane sums must refuse: a value in (0, 2^-19), below the
// exactness floor of a 1024-pixel image; a value above 1; a NaN; and an
// odd pixel count, which the 16-pixel step does not divide. Each takes the
// serial loop and still matches it.
TEST(ImageTest, MeanChannelsFallBackToSerialSums) {
  Rng rng(47);
  auto filled = [&](int w, int h) {
    Image img(w, h);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int c = 0; c < 3; ++c) {
          img.Set(x, y, c, static_cast<float>(rng.Uniform(0.25, 1.0)));
        }
      }
    }
    return img;
  };
  struct Case {
    const char* what;
    int w, h;
    float value;
  };
  const Case cases[] = {
      {"tiny positive", 32, 32, std::ldexp(1.0f, -20)},
      {"above one", 32, 32, 1.5f},
      {"nan", 32, 32, std::numeric_limits<float>::quiet_NaN()},
      {"odd pixel count", 33, 33, 0.5f},
  };
  for (const Case& k : cases) {
    Image img = filled(k.w, k.h);
    img.Set(k.w / 2, k.h / 3, 1, k.value);
    ExpectSerialMeans(img, k.what);
    double sums[3];
    EXPECT_FALSE(raster::SumChannels(
        img.data().data(), static_cast<size_t>(k.w) * k.h, sums))
        << k.what;
  }
  // The control: the same image with in-range values takes the lanes on
  // the AVX-512 tier.
  Image ok = filled(32, 32);
  ExpectSerialMeans(ok, "in range");
  double sums[3];
  EXPECT_EQ(raster::SumChannels(ok.data().data(), 32 * 32, sums),
            CpuHasAvx512());
}

TEST(ImageTest, CropMeanChannelOfRect) {
  Image img(10, 10);
  img.FillRect(Rect{0.0, 0.0, 0.5, 1.0}, Color{1, 0, 0});
  EXPECT_NEAR(img.Crop(Rect{0.0, 0.0, 0.5, 1.0}).MeanChannel(0), 1.0, 1e-6);
  EXPECT_NEAR(img.Crop(Rect{0.5, 0.0, 1.0, 1.0}).MeanChannel(0), 0.0, 0.25);
}

TEST(ImageTest, AddNoiseBoundedAndDeterministic) {
  Image a(8, 8), b(8, 8);
  a.Fill(Color{0.5f, 0.5f, 0.5f});
  b.Fill(Color{0.5f, 0.5f, 0.5f});
  Rng r1(9), r2(9);
  a.AddNoiseFromState(r1.engine()(), 0.1);
  b.AddNoiseFromState(r2.engine()(), 0.1);
  bool any_changed = false;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_GE(a.At(x, y, c), 0.0f);
        EXPECT_LE(a.At(x, y, c), 1.0f);
        EXPECT_FLOAT_EQ(a.At(x, y, c), b.At(x, y, c));
        if (a.At(x, y, c) != 0.5f) any_changed = true;
      }
    }
  }
  EXPECT_TRUE(any_changed);
}

TEST(ImageTest, CropExtractsRegion) {
  Image img(10, 10);
  img.FillRect(Rect{0.5, 0.5, 1.0, 1.0}, Color{0, 1, 0});
  Image crop = img.Crop(Rect{0.5, 0.5, 1.0, 1.0});
  EXPECT_EQ(crop.width(), 5);
  EXPECT_EQ(crop.height(), 5);
  EXPECT_NEAR(crop.MeanChannel(1), 1.0, 1e-6);
}

TEST(ImageTest, CropEmptyRect) {
  Image img(10, 10);
  EXPECT_TRUE(img.Crop(Rect{0.5, 0.5, 0.5, 0.5}).Empty());
}

}  // namespace
}  // namespace blazeit
