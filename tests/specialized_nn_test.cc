#include "nn/specialized_nn.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/labeled_set.h"
#include "detect/simulated_detector.h"
#include "exec/thread_pool.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "stats/online_stats.h"
#include "video/datasets.h"
#include "video/render_features.h"

namespace blazeit {
namespace {

TEST(ChooseNumClassesTest, PaperRule) {
  // 1% of the video contains 3 cars -> 4 classes (paper's example).
  std::vector<int> counts;
  for (int i = 0; i < 97; ++i) counts.push_back(0);
  for (int i = 0; i < 2; ++i) counts.push_back(1);
  counts.push_back(3);  // exactly 1%
  EXPECT_EQ(ChooseNumClasses(counts, 0.01), 4);
}

TEST(ChooseNumClassesTest, RareTailExcluded) {
  std::vector<int> counts(1000, 0);
  counts[0] = 5;  // 0.1% of frames
  for (int i = 1; i < 200; ++i) counts[i] = 1;
  EXPECT_EQ(ChooseNumClasses(counts, 0.01), 2);  // classes {0,1}
}

TEST(ChooseNumClassesTest, EmptyAndAllZero) {
  EXPECT_EQ(ChooseNumClasses({}), 1);
  EXPECT_EQ(ChooseNumClasses(std::vector<int>(100, 0)), 1);
}

// Independent reference for the pooled-feature math: the historical
// FrameFeatures loop from nn/specialized_nn.cc as it existed before the
// fused render_features kernel replaced it. RenderFrameFeatures must match
// this bit-for-bit — cached per-frame NN artifacts were NOT epoch-bumped
// across the fusion, so the fused path inherits the old math as its spec.
std::vector<float> RefFrameFeatures(const SyntheticVideo& video,
                                    int64_t frame, int width, int height) {
  constexpr int kPool = 2;
  constexpr float kMean = 0.45f;
  constexpr float kStd = 0.22f;
  Image img = video.RenderFrame(frame, width * kPool, height * kPool);
  const double mean_r = img.MeanChannel(0);
  const double mean_g = img.MeanChannel(1);
  const double mean_b = img.MeanChannel(2);
  std::vector<float> features;
  features.reserve(static_cast<size_t>(width) * height * 4);
  for (int cy = 0; cy < height; ++cy) {
    for (int cx = 0; cx < width; ++cx) {
      double r = 0, g = 0, b = 0, dev = 0;
      for (int dy = 0; dy < kPool; ++dy) {
        for (int dx = 0; dx < kPool; ++dx) {
          int x = cx * kPool + dx;
          int y = cy * kPool + dy;
          double pr = img.At(x, y, 0);
          double pg = img.At(x, y, 1);
          double pb = img.At(x, y, 2);
          r += pr;
          g += pg;
          b += pb;
          dev += std::abs(pr - mean_r) + std::abs(pg - mean_g) +
                 std::abs(pb - mean_b);
        }
      }
      const double inv = 1.0 / (kPool * kPool);
      features.push_back(
          static_cast<float>(((static_cast<double>(r) * inv) -
                              static_cast<double>(kMean)) /
                             static_cast<double>(kStd)));
      features.push_back(
          static_cast<float>(((static_cast<double>(g) * inv) -
                              static_cast<double>(kMean)) /
                             static_cast<double>(kStd)));
      features.push_back(
          static_cast<float>(((static_cast<double>(b) * inv) -
                              static_cast<double>(kMean)) /
                             static_cast<double>(kStd)));
      features.push_back(static_cast<float>((dev * inv - 0.1) / 0.3));
    }
  }
  return features;
}

TEST(FrameFeaturesTest, FusedPathMatchesHistoricalReference) {
  // Every stream, so per-stream lighting (archie's day brightness jitter)
  // and clutter are covered. Non-square grids exercise the fused kernel's
  // row strides; sizes whose render is not a power of two pixels exercise
  // the channel-mean division; 32x32 is the library's default raster.
  Image scratch;
  for (const char* stream : {"taipei", "night-street", "rialto",
                             "grand-canal", "amsterdam", "archie"}) {
    auto video =
        SyntheticVideo::Create(StreamConfigByName(stream).value(), 1, 200)
            .value();
    for (auto [w, h] : {std::pair{16, 16}, {32, 32}, {12, 20}, {7, 3}}) {
      std::vector<float> row(static_cast<size_t>(w) * h * kFeatureChannels);
      for (int64_t frame : {0, 63, 199}) {
        std::vector<float> want = RefFrameFeatures(*video, frame, w, h);
        RenderFrameFeatures(*video, frame, w, h, row.data(), &scratch);
        ASSERT_EQ(want.size(), row.size());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i], row[i]) << stream << " " << w << "x" << h
                                     << " frame " << frame << " index " << i;
        }
      }
    }
  }
}

TEST(FrameFeaturesTest, FusedRowPathMatchesVectorPath) {
  // The batch loops render features straight into the NN input row via
  // RenderFrameFeatures with a reused scratch Image; bits must match the
  // vector-returning FrameFeatures wrapper exactly.
  auto video = SyntheticVideo::Create(TaipeiConfig(), 1, 200).value();
  Image scratch;
  std::vector<float> row(16 * 16 * kFeatureChannels);
  for (int64_t frame : {0, 7, 63, 199}) {
    std::vector<float> want = FrameFeatures(*video, frame, 16, 16);
    RenderFrameFeatures(*video, frame, 16, 16, row.data(), &scratch);
    ASSERT_EQ(want.size(), row.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], row[i]) << "frame " << frame << " index " << i;
    }
  }
}

TEST(FrameFeaturesTest, SizeAndDeterminism) {
  auto video = SyntheticVideo::Create(TaipeiConfig(), 1, 100).value();
  auto a = FrameFeatures(*video, 10, 16, 16);
  auto b = FrameFeatures(*video, 10, 16, 16);
  EXPECT_EQ(a.size(), 16u * 16u * 4u);  // RGB + deviation channel per cell
  EXPECT_EQ(a, b);
  auto c = FrameFeatures(*video, 11, 16, 16);
  EXPECT_NE(a, c);
}

// An artifact cache that records the trained weights Train writes back
// and misses every lookup, so inference always runs the kernels.
class WeightRecordingCache : public ArtifactCache {
 public:
  bool GetFrameFloats(uint64_t, int64_t, std::vector<float>*) override {
    return false;
  }
  void PutFrameFloats(uint64_t, int64_t, const std::vector<float>&) override {
  }
  bool GetFrameDoubles(uint64_t, int64_t, std::vector<double>*) override {
    return false;
  }
  void PutFrameDoubles(uint64_t, int64_t,
                       const std::vector<double>&) override {}
  bool GetBlob(uint64_t, std::vector<float>* out) override {
    if (served.empty()) return false;
    *out = served;
    return true;
  }
  void PutBlob(uint64_t, const std::vector<float>& values) override {
    weights = values;
  }

  std::vector<float> weights;
  /// What GetBlob serves; empty means a miss.
  std::vector<float> served;
};

// Batched inference against an independent model: the weights Train
// wrote back, applied to RefFrameFeatures by naive loops in the kernels'
// per-cell order (ascending k, separate multiply and add, bias after the
// product), then ReLU, Softmax and the expected count in double. 300
// frames leave a partial last 256-frame batch; pool sizes 1 and 2 move
// the batches across worker slots and their reused input matrices.
TEST(SpecializedNNReferenceTest, InferenceMatchesNaiveModel) {
  auto train_day =
      SyntheticVideo::Create(ArchieConfig(), kTrainDaySeed, 1000).value();
  auto test_day =
      SyntheticVideo::Create(ArchieConfig(), kTestDaySeed, 300).value();
  SimulatedDetector detector;
  LabeledSet labels(train_day.get(), &detector, 0.5);
  std::vector<int64_t> frames(300);
  std::iota(frames.begin(), frames.end(), 0);
  for (auto [grid, hidden] : {std::pair{16, 32}, {32, 64}}) {
    WeightRecordingCache cache;
    SpecializedNNConfig cfg;
    cfg.raster_width = grid;
    cfg.raster_height = grid;
    cfg.hidden_dims = {hidden};
    cfg.cache = &cache;
    auto nn =
        SpecializedNN::Train(*train_day, {labels.Counts(kCar)}, cfg).value();
    const size_t in = static_cast<size_t>(grid) * grid * kFeatureChannels;
    const size_t width = static_cast<size_t>(hidden);
    const int classes = nn.head_classes(0);
    // Trunk W [in, hidden] and b, then head W [hidden, classes] and b.
    ASSERT_EQ(cache.weights.size(),
              in * width + width + (width + 1) * static_cast<size_t>(classes));
    const float* w1 = cache.weights.data();
    const float* b1 = w1 + in * width;
    const float* w2 = b1 + width;
    const float* b2 = w2 + width * static_cast<size_t>(classes);

    std::vector<float> want;
    for (int64_t frame : frames) {
      std::vector<float> x = RefFrameFeatures(*test_day, frame, grid, grid);
      std::vector<float> act(width);
      for (size_t j = 0; j < width; ++j) {
        float sum = 0.0f;
        for (size_t k = 0; k < in; ++k) sum += x[k] * w1[k * width + j];
        sum += b1[j];
        act[j] = sum > 0.0f ? sum : 0.0f;
      }
      Matrix logits(1, classes);
      for (int c = 0; c < classes; ++c) {
        float sum = 0.0f;
        for (size_t j = 0; j < width; ++j) {
          sum += act[j] * w2[j * static_cast<size_t>(classes) +
                             static_cast<size_t>(c)];
        }
        logits.At(0, c) = sum + b2[c];
      }
      Matrix probs = Softmax(logits);
      double expected = 0;
      for (int c = 0; c < classes; ++c) {
        expected += static_cast<double>(c) *
                    static_cast<double>(probs.At(0, c));
      }
      want.push_back(static_cast<float>(expected));
    }

    for (int threads : {1, 2}) {
      exec::ThreadPool::Instance().Reconfigure(threads);
      std::vector<float> got = nn.ExpectedCountsForFrames(*test_day, frames);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i], got[i]) << grid << "x" << grid << " hidden "
                                   << hidden << " pool " << threads
                                   << " frame " << frames[i];
      }
    }
  }
  exec::ThreadPool::Instance().Reconfigure(
      exec::ThreadPool::ThreadsFromEnv());
}

// The trained weights, pinned by hash. Training renders features, runs
// the GEMMs, the gradient accumulate and the SGD update, so a kernel that
// changed one bit on any ISA tier would change the weights that stores
// replay across machines. The hash was recorded with the scalar training
// loops; it changes only with a kDerivedArtifactEpoch bump.
TEST(SpecializedNNReferenceTest, TrainedWeightsArePinned) {
  auto day =
      SyntheticVideo::Create(TaipeiConfig(), kTrainDaySeed, 1500).value();
  SimulatedDetector detector;
  LabeledSet labels(day.get(), &detector, 0.5);
  WeightRecordingCache cache;
  SpecializedNNConfig cfg;
  cfg.raster_width = 16;
  cfg.raster_height = 16;
  cfg.hidden_dims = {32};
  cfg.cache = &cache;
  auto nn = SpecializedNN::Train(*day, {labels.Counts(kCar)}, cfg).value();
  ASSERT_EQ(nn.trained_frames(), 1500);
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the float bits
  for (float w : cache.weights) {
    const uint32_t bits = std::bit_cast<uint32_t>(w);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(cache.weights.size(), 32965u);
  EXPECT_EQ(hash, 0xac47c7f00c01aefULL);
}

int64_t WeightsCacheHits() {
  return obs::MetricsRegistry::Global()
      .GetCounter("nn.weights_cache_hits", obs::Stability::kStable)
      ->value();
}

// A cached blob whose length does not fit the model is ignored: Train runs
// the cold sequence (Rng, trunk and head init, training) and writes back
// exactly the weights TrainedWeightsArePinned pins.
TEST(SpecializedNNReferenceTest, WrongLengthBlobRetrainsToPinnedWeights) {
  auto day =
      SyntheticVideo::Create(TaipeiConfig(), kTrainDaySeed, 1500).value();
  SimulatedDetector detector;
  LabeledSet labels(day.get(), &detector, 0.5);
  WeightRecordingCache cache;
  cache.served.assign(32964, 0.5f);  // one parameter short
  SpecializedNNConfig cfg;
  cfg.raster_width = 16;
  cfg.raster_height = 16;
  cfg.hidden_dims = {32};
  cfg.cache = &cache;
  const int64_t hits_before = WeightsCacheHits();
  auto nn = SpecializedNN::Train(*day, {labels.Counts(kCar)}, cfg).value();
  EXPECT_EQ(WeightsCacheHits(), hits_before);
  ASSERT_EQ(nn.trained_frames(), 1500);
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the float bits
  for (float w : cache.weights) {
    const uint32_t bits = std::bit_cast<uint32_t>(w);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(cache.weights.size(), 32965u);
  EXPECT_EQ(hash, 0xac47c7f00c01aefULL);
}

// A weights hit builds the layers without initializing them and copies the
// blob in, in parameter order: its outputs equal the trained model's bit
// for bit, and it trains and writes back nothing.
TEST(SpecializedNNReferenceTest, WeightsHitReproducesTrainedModel) {
  auto day = SyntheticVideo::Create(ArchieConfig(), kTrainDaySeed, 600).value();
  SimulatedDetector detector;
  LabeledSet labels(day.get(), &detector, 0.5);
  WeightRecordingCache cache;
  SpecializedNNConfig cfg;
  cfg.raster_width = 16;
  cfg.raster_height = 16;
  cfg.hidden_dims = {32, 16};
  cfg.cache = &cache;
  const std::vector<std::vector<int>> heads = {labels.Counts(kCar),
                                               labels.Counts(kPerson)};
  auto cold = SpecializedNN::Train(*day, heads, cfg).value();
  ASSERT_FALSE(cache.weights.empty());
  cache.served = cache.weights;
  cache.weights.clear();
  const int64_t hits_before = WeightsCacheHits();
  auto warm = SpecializedNN::Train(*day, heads, cfg).value();
  EXPECT_EQ(WeightsCacheHits(), hits_before + 1);
  EXPECT_TRUE(cache.weights.empty());
  EXPECT_EQ(warm.trained_frames(), cold.trained_frames());
  ASSERT_EQ(warm.num_heads(), 2);
  std::vector<int64_t> frames(50);
  std::iota(frames.begin(), frames.end(), 0);
  for (int head = 0; head < 2; ++head) {
    ASSERT_EQ(warm.head_classes(head), cold.head_classes(head));
    const std::vector<float> want =
        cold.ExpectedCountsForFrames(*day, frames, head);
    const std::vector<float> got =
        warm.ExpectedCountsForFrames(*day, frames, head);
    for (size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
                std::bit_cast<uint32_t>(want[i]))
          << "head " << head << " frame " << i;
    }
  }
}

class SpecializedNNTest : public ::testing::Test {
 protected:
  void SetUp() override {
    video_ = SyntheticVideo::Create(TaipeiConfig(), 101, 6000).value();
    detector_ = std::make_unique<SimulatedDetector>();
    labels_ = std::make_unique<LabeledSet>(video_.get(), detector_.get(), 0.5);
  }
  SpecializedNNConfig FastConfig() {
    SpecializedNNConfig cfg;
    cfg.raster_width = 16;
    cfg.raster_height = 16;
    cfg.hidden_dims = {32};
    cfg.max_train_frames = 6000;
    return cfg;
  }
  std::unique_ptr<SyntheticVideo> video_;
  std::unique_ptr<SimulatedDetector> detector_;
  std::unique_ptr<LabeledSet> labels_;
};

TEST_F(SpecializedNNTest, TrainRejectsBadInputs) {
  EXPECT_FALSE(SpecializedNN::Train(*video_, {}, FastConfig()).ok());
  EXPECT_FALSE(SpecializedNN::Train(*video_, {{}}, FastConfig()).ok());
  // Mismatched head lengths.
  EXPECT_FALSE(
      SpecializedNN::Train(*video_, {{0, 1}, {0}}, FastConfig()).ok());
}

TEST_F(SpecializedNNTest, SingleHeadShapes) {
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, FastConfig());
  BLAZEIT_ASSERT_OK(nn);
  EXPECT_EQ(nn.value().num_heads(), 1);
  EXPECT_GE(nn.value().head_classes(0), 2);
  // P(count >= 0) is the whole softmax row, so it sums to one.
  auto total =
      nn.value().QueryConfidencesForFrames(*video_, {0, 17, 333}, {0});
  ASSERT_EQ(total.size(), 3u);
  for (float sum : total) EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST_F(SpecializedNNTest, LearnsCorrelatedCounts) {
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, FastConfig())
          .value();
  OnlineCovariance cov;
  const auto& truth = labels_->Counts(kCar);
  std::vector<int64_t> frames(3000);
  std::iota(frames.begin(), frames.end(), 0);
  auto pred = nn.ExpectedCountsForFrames(*video_, frames);
  for (size_t i = 0; i < pred.size(); ++i) cov.Add(pred[i], truth[i]);
  // Training-set correlation must be clearly positive.
  EXPECT_GT(cov.Correlation(), 0.3);
}

TEST_F(SpecializedNNTest, MultiHeadSeparateConfidences) {
  auto nn = SpecializedNN::Train(
                *video_, {labels_->Counts(kCar), labels_->Counts(kBus)},
                FastConfig())
                .value();
  EXPECT_EQ(nn.num_heads(), 2);
  const std::vector<int64_t> frames = {5, 100, 200};
  // The paper's signal adds the per-head tails, so it is bounded by the
  // number of heads; a minimum of 0 makes a head contribute exactly 1.
  auto both = nn.QueryConfidencesForFrames(*video_, frames, {1, 1});
  auto car = nn.QueryConfidencesForFrames(*video_, frames, {1, 0});
  auto bus = nn.QueryConfidencesForFrames(*video_, frames, {0, 1});
  auto first_head = nn.QueryConfidencesForFrames(*video_, frames, {1});
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_GE(both[i], 0.0f);
    EXPECT_LE(both[i], 2.0f + 1e-6f);
    EXPECT_NEAR(both[i], (car[i] - 1.0f) + (bus[i] - 1.0f), 1e-5);
    // Heads past the end of min_counts do not contribute.
    EXPECT_NEAR(first_head[i], car[i] - 1.0f, 1e-5);
  }
}

TEST_F(SpecializedNNTest, ExpectedCountWithinClassRange) {
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, FastConfig())
          .value();
  for (float e : nn.ExpectedCountsForFrames(*video_, {0, 50, 500})) {
    EXPECT_GE(e, 0.0f);
    EXPECT_LE(e, nn.head_classes(0) - 1.0f);
  }
}

TEST_F(SpecializedNNTest, TrainedFramesAccountsEpochs) {
  SpecializedNNConfig cfg = FastConfig();
  cfg.train.epochs = 2;
  cfg.max_train_frames = 1000;
  auto nn = SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, cfg);
  BLAZEIT_ASSERT_OK(nn);
  EXPECT_EQ(nn.value().trained_frames(), 2000);
}

TEST_F(SpecializedNNTest, MinClassesExpandsHead) {
  SpecializedNNConfig cfg = FastConfig();
  cfg.min_classes = 4;
  auto nn = SpecializedNN::Train(*video_, {labels_->Counts(kBus)}, cfg);
  BLAZEIT_ASSERT_OK(nn);
  // Bus counts are mostly 0/1; 1% rule would give ~2 classes, min_classes
  // raises it (capped by max observed + 1).
  EXPECT_GE(nn.value().head_classes(0), 2);
}

}  // namespace
}  // namespace blazeit
