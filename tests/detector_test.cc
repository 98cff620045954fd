#include "detect/simulated_detector.h"

#include <gtest/gtest.h>

#include "detect/cached_detector.h"
#include "video/datasets.h"

namespace blazeit {
namespace {

class DetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    video_ = SyntheticVideo::Create(TaipeiConfig(), 5, 3000).value();
  }
  std::unique_ptr<SyntheticVideo> video_;
};

TEST_F(DetectorTest, Deterministic) {
  SimulatedDetector det;
  auto a = det.Detect(*video_, 123);
  auto b = det.Detect(*video_, 123);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rect, b[i].rect);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST_F(DetectorTest, RecallsMostLargeObjects) {
  SimulatedDetector det;
  int64_t truth = 0, detected_match = 0;
  for (int64_t t = 0; t < 3000; t += 7) {
    auto dets = det.Detect(*video_, t);
    for (const auto& obj : video_->GroundTruth(t)) {
      if (obj.rect.Area() < 0.01) continue;  // large objects only
      ++truth;
      for (const auto& d : dets) {
        if (d.class_id == obj.class_id && Iou(d.rect, obj.rect) > 0.5) {
          ++detected_match;
          break;
        }
      }
    }
  }
  ASSERT_GT(truth, 50);
  EXPECT_GT(static_cast<double>(detected_match) / truth, 0.9);
}

TEST_F(DetectorTest, SmallObjectsMissedMoreOften) {
  DetectorNoiseConfig noise;
  SimulatedDetector det(noise);
  StreamConfig small_cfg = ArchieConfig();
  auto small_video = SyntheticVideo::Create(small_cfg, 5, 3000).value();
  int64_t truth = 0, hits = 0;
  for (int64_t t = 0; t < 3000; t += 3) {
    auto dets = det.Detect(*small_video, t);
    for (const auto& obj : small_video->GroundTruth(t)) {
      ++truth;
      for (const auto& d : dets) {
        if (d.class_id == obj.class_id && Iou(d.rect, obj.rect) > 0.3) {
          ++hits;
          break;
        }
      }
    }
  }
  ASSERT_GT(truth, 100);
  double recall_small = static_cast<double>(hits) / truth;
  EXPECT_LT(recall_small, 0.9);  // tiny archie cars get missed
}

TEST_F(DetectorTest, FalsePositivesScoreLow) {
  DetectorNoiseConfig noise;
  noise.false_positive_rate = 2.0;  // force many
  SimulatedDetector det(noise);
  for (int64_t t = 0; t < 50; ++t) {
    auto dets = det.Detect(*video_, t);
    size_t truth_count = video_->GroundTruth(t).size();
    // All extra detections (beyond possible truth) must be under the FP
    // max score, so the Table 3 thresholds remove them.
    size_t high = 0;
    for (const auto& d : dets) {
      if (d.score >= 0.5) ++high;
    }
    EXPECT_LE(high, truth_count);
  }
}

TEST_F(DetectorTest, ScoresWithinUnitInterval) {
  SimulatedDetector det;
  for (int64_t t = 0; t < 200; ++t) {
    for (const auto& d : det.Detect(*video_, t)) {
      EXPECT_GE(d.score, 0.0);
      EXPECT_LE(d.score, 1.0);
      EXPECT_FALSE(d.rect.Empty());
    }
  }
}

TEST_F(DetectorTest, FilterClassHelper) {
  std::vector<Detection> dets;
  Detection d;
  d.class_id = kCar;
  d.score = 0.9;
  dets.push_back(d);
  d.class_id = kBus;
  d.score = 0.7;
  dets.push_back(d);
  d.class_id = kCar;
  d.score = 0.2;
  dets.push_back(d);
  EXPECT_EQ(FilterClass(dets, kCar, 0.5).size(), 1u);
  EXPECT_EQ(FilterClass(dets, kCar, 0.1).size(), 2u);
  EXPECT_EQ(FilterClass(dets, kBus, 0.5).size(), 1u);
}

TEST_F(DetectorTest, CachedDetectorMatchesInner) {
  SimulatedDetector inner;
  CachedDetector cached(&inner);
  auto a = cached.Detect(*video_, 42);
  auto b = inner.Detect(*video_, 42);
  ASSERT_EQ(a.size(), b.size());
  auto c = cached.Detect(*video_, 42);
  ASSERT_EQ(a.size(), c.size());
}

TEST_F(DetectorTest, CacheDistinguishesSameSeedStreams) {
  // Regression: the old cache key hand-mixed (seed, frame) into one
  // uint64_t, so two *different* streams generated with the same seed —
  // exactly what the catalog does with its fixed day seeds — collided and
  // one stream silently replayed the other's detections. The composite
  // (stream fingerprint, frame) key must keep them apart.
  auto taipei = SyntheticVideo::Create(TaipeiConfig(), 101, 100).value();
  auto rialto = SyntheticVideo::Create(RialtoConfig(), 101, 100).value();
  ASSERT_EQ(taipei->seed(), rialto->seed());
  ASSERT_NE(taipei->fingerprint(), rialto->fingerprint());

  SimulatedDetector inner;
  CachedDetector cached(&inner);
  for (int64_t t = 0; t < 30; ++t) {
    // Populate with taipei first so a colliding key would serve taipei's
    // detections for rialto.
    (void)cached.Detect(*taipei, t);
    auto from_cache = cached.Detect(*rialto, t);
    auto direct = inner.Detect(*rialto, t);
    ASSERT_EQ(from_cache.size(), direct.size()) << "frame " << t;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(from_cache[i].rect, direct[i].rect);
      EXPECT_EQ(from_cache[i].class_id, direct[i].class_id);
      EXPECT_EQ(from_cache[i].score, direct[i].score);
    }
  }
}

}  // namespace
}  // namespace blazeit
