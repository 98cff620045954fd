#include <gtest/gtest.h>

#include "testing/test_util.h"

#include <map>
#include <numeric>

#include "core/labeled_set.h"
#include "core/selection.h"
#include "core/udf.h"
#include "detect/simulated_detector.h"
#include "filters/calibration.h"
#include "filters/content_filter.h"
#include "filters/spatial_filter.h"
#include "filters/temporal_filter.h"
#include "video/datasets.h"

namespace blazeit {
namespace {

TEST(TemporalFilterTest, StrideFromPersistence) {
  // Paper: objects present >= 30 frames -> sample every 14 frames.
  EXPECT_EQ(TemporalFilter::StrideForPersistence(30), 14);
  EXPECT_EQ(TemporalFilter::StrideForPersistence(15), 7);
  EXPECT_EQ(TemporalFilter::StrideForPersistence(2), 1);
  EXPECT_EQ(TemporalFilter::StrideForPersistence(0), 1);
}

TEST(TemporalFilterTest, StrideGuaranteesCoverage) {
  // Property: any window of length K contains at least two samples when
  // stride = (K-1)/2 and K >= 5.
  for (int64_t k = 5; k <= 120; ++k) {
    int64_t stride = TemporalFilter::StrideForPersistence(k);
    // Worst-case window start just after a sample.
    int64_t samples_in_window = (k - 1) / stride;
    EXPECT_GE(samples_in_window, 2) << "K=" << k;
  }
}

TEST(TemporalFilterTest, CandidateFrames) {
  TemporalFilter f;
  f.set_stride(10);
  auto frames = f.CandidateFrames(35);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[3], 30);
}

TEST(TemporalFilterTest, TimeRange) {
  TemporalFilter f;
  BLAZEIT_ASSERT_OK(f.SetTimeRange(10, 20));
  auto frames = f.CandidateFrames(100);
  ASSERT_EQ(frames.size(), 10u);
  EXPECT_EQ(frames.front(), 10);
  EXPECT_EQ(frames.back(), 19);
  EXPECT_FALSE(f.SetTimeRange(-1, 5).ok());
  EXPECT_FALSE(f.SetTimeRange(10, 10).ok());
}

TEST(SpatialFilterTest, PaperExampleSquarification) {
  // xmax < 720 on 1280x720: effective crop 720x720, aspect 1.
  SpatialFilter f(Rect{0.0, 0.0, 720.0 / 1280.0, 1.0}, 1280, 720);
  EXPECT_NEAR(f.AspectRatio(), 1.0, 0.05);
  EXPECT_NEAR(f.Speedup(), 16.0 / 9.0, 0.1);
}

TEST(SpatialFilterTest, FullFrameNoSpeedup) {
  SpatialFilter f(Rect{0, 0, 1, 1}, 1280, 720);
  EXPECT_NEAR(f.Speedup(), 1.0, 1e-9);
}

TEST(SpatialFilterTest, ContainsByCenter) {
  SpatialFilter f(Rect{0.5, 0.5, 1.0, 1.0}, 1280, 720);
  Detection inside;
  inside.rect = Rect{0.6, 0.6, 0.8, 0.8};
  Detection outside;
  outside.rect = Rect{0.0, 0.0, 0.2, 0.2};
  EXPECT_TRUE(f.Contains(inside));
  EXPECT_FALSE(f.Contains(outside));
}

TEST(SpatialFilterTest, CropCoversRoi) {
  Rect roi{0.45, 0.55, 1.0, 0.95};
  SpatialFilter f(roi, 1280, 720);
  Rect crop = f.effective_crop();
  EXPECT_LE(crop.xmin, roi.xmin + 1e-9);
  EXPECT_GE(crop.xmax, roi.xmax - 1e-9);
  EXPECT_LE(crop.ymin, roi.ymin + 1e-9);
  EXPECT_GE(crop.ymax, roi.ymax - 1e-9);
  EXPECT_GE(f.Speedup(), 1.0);
}

TEST(CalibrationTest, DefaultMarginShiftsBelowWeakestPositive) {
  // Positives score 0.25, 0.75 and 0.5: the default margin puts the
  // threshold 5% of their range (0.5) below the weakest, at 0.225.
  const std::vector<double> scores = {0.1, 0.25, 0.22, 0.75,
                                      0.2, 0.5,  0.23, 0.0};
  const std::vector<char> positives = {0, 1, 0, 1, 0, 1, 0, 0};
  auto calib = CalibrateNoFalseNegatives(scores, positives);
  BLAZEIT_ASSERT_OK(calib);
  EXPECT_EQ(calib.value().threshold, 0.25 - 0.05 * (0.75 - 0.25));
  EXPECT_DOUBLE_EQ(calib.value().threshold, 0.225);
  EXPECT_EQ(calib.value().positives, 3);
  // The three positives and the negative at 0.23 pass; 0.22 does not.
  EXPECT_EQ(calib.value().selectivity, 4.0 / 8.0);

  // Zero margin: the weakest positive itself.
  auto tight = CalibrateNoFalseNegatives(scores, positives, 0.0);
  BLAZEIT_ASSERT_OK(tight);
  EXPECT_EQ(tight.value().threshold, 0.25);
  EXPECT_EQ(tight.value().selectivity, 3.0 / 8.0);

  // The mask must cover every scored frame.
  auto short_mask = CalibrateNoFalseNegatives(
      scores, std::vector<char>(positives.begin(), positives.end() - 1));
  EXPECT_FALSE(short_mask.ok());
  EXPECT_EQ(short_mask.status().code(), StatusCode::kInvalidArgument);
}

TEST(CalibrationTest, NoPositivesReturnsNotFound) {
  auto calib = CalibrateNoFalseNegatives({0.5, 0.7}, {0, 0});
  EXPECT_FALSE(calib.ok());
  EXPECT_EQ(calib.status().code(), StatusCode::kNotFound);
}

/// Map-backed ArtifactCache holding per-frame doubles only.
class DoublesCache final : public ArtifactCache {
 public:
  bool GetFrameFloats(uint64_t, int64_t, std::vector<float>*) override {
    return false;
  }
  void PutFrameFloats(uint64_t, int64_t, const std::vector<float>&) override {}
  bool GetFrameDoubles(uint64_t ns, int64_t frame,
                       std::vector<double>* out) override {
    auto it = doubles_.find({ns, frame});
    if (it == doubles_.end()) return false;
    *out = it->second;
    return true;
  }
  void PutFrameDoubles(uint64_t ns, int64_t frame,
                       const std::vector<double>& values) override {
    doubles_[{ns, frame}] = values;
  }
  bool GetBlob(uint64_t, std::vector<float>*) override { return false; }
  void PutBlob(uint64_t, const std::vector<float>&) override {}

  size_t size() const { return doubles_.size(); }

 private:
  std::map<std::pair<uint64_t, int64_t>, std::vector<double>> doubles_;
};

class FilterCalibrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    video_ = SyntheticVideo::Create(TaipeiConfig(), 202, 4000).value();
    detector_ = std::make_unique<SimulatedDetector>();
    labels_ = std::make_unique<LabeledSet>(video_.get(), detector_.get(), 0.5);
    frames_.resize(4000);
    std::iota(frames_.begin(), frames_.end(), int64_t{0});
  }
  std::unique_ptr<SyntheticVideo> video_;
  std::unique_ptr<SimulatedDetector> detector_;
  std::unique_ptr<LabeledSet> labels_;
  std::vector<int64_t> frames_;
};

TEST_F(FilterCalibrationTest, ContentFilterRednessSelective) {
  // Positives: frames with a red tour bus (population 0).
  std::vector<char> positives(4000, 0);
  int64_t n_pos = 0;
  for (int64_t t = 0; t < 4000; ++t) {
    for (const auto& obj : video_->GroundTruth(t)) {
      if (obj.class_id == kBus && obj.population == 0) {
        positives[static_cast<size_t>(t)] = 1;
        ++n_pos;
        break;
      }
    }
  }
  ASSERT_GT(n_pos, 10) << "scene model should produce red buses";
  ContentFilter filter(UdfRegistry::Redness);
  const std::vector<double> scores = filter.ScoreBatch(*video_, frames_);
  auto calib = CalibrateNoFalseNegatives(scores, positives, 0.0);
  BLAZEIT_ASSERT_OK(calib);
  // No false negatives by construction...
  for (int64_t t = 0; t < 4000; ++t) {
    if (positives[static_cast<size_t>(t)]) {
      EXPECT_GE(scores[static_cast<size_t>(t)], calib.value().threshold) << t;
    }
  }
  // ...and the filter must discard a large share of the video.
  EXPECT_LT(calib.value().selectivity, 0.5);
}

TEST_F(FilterCalibrationTest, ContentFilterCacheKeyIsStable) {
  // Stores written before hold content scores under this key; a changed
  // derivation would silently recompute every one of them.
  const uint64_t udf_fp = 0x5eed;
  const uint64_t ns = HashCombine(Fingerprint()
                                      .Mix("content-filter")
                                      .Mix(udf_fp)
                                      .Mix(32)
                                      .Mix(32)
                                      .value(),
                                  video_->fingerprint());
  DoublesCache cache;
  cache.PutFrameDoubles(ns, 7, {123.5});
  ContentFilter filter(UdfRegistry::Redness, &cache, udf_fp);
  const std::vector<double> cold =
      ContentFilter(UdfRegistry::Redness).ScoreBatch(*video_, {6, 7, 8});
  const std::vector<double> scores = filter.ScoreBatch(*video_, {6, 7, 8});
  EXPECT_EQ(scores[0], cold[0]);
  EXPECT_EQ(scores[1], 123.5);  // served from the pinned key
  EXPECT_EQ(scores[2], cold[2]);
  EXPECT_EQ(cache.size(), 3u);  // the two misses were written back
  std::vector<double> stored;
  ASSERT_TRUE(cache.GetFrameDoubles(ns, 8, &stored));
  EXPECT_EQ(stored, std::vector<double>{cold[2]});

  // A UDF without a content fingerprint is never persisted.
  DoublesCache untouched;
  ContentFilter(UdfRegistry::Redness, &untouched, 0).ScoreBatch(*video_, {7});
  EXPECT_EQ(untouched.size(), 0u);
}

TEST_F(FilterCalibrationTest, PresenceScoresCalibrateOnCarFrames) {
  SpecializedNNConfig cfg;
  cfg.raster_width = 16;
  cfg.raster_height = 16;
  cfg.hidden_dims = {32};
  auto nn =
      SpecializedNN::Train(*video_, {labels_->Counts(kCar)}, cfg).value();
  std::vector<char> positives;
  for (int c : labels_->Counts(kCar)) positives.push_back(c > 0 ? 1 : 0);
  auto calib = CalibrateNoFalseNegatives(PresenceScores(nn, *video_, frames_),
                                         positives, 0.0);
  BLAZEIT_ASSERT_OK(calib);
  EXPECT_GT(calib.value().positives, 0);
  EXPECT_LE(calib.value().selectivity, 1.0);
}

}  // namespace
}  // namespace blazeit
