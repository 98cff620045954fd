#include "track/iou_tracker.h"

#include <gtest/gtest.h>

#include <vector>

namespace blazeit {
namespace {

Detection MakeDet(int class_id, double x, double y, double size = 0.2) {
  Detection d;
  d.class_id = class_id;
  d.rect = Rect{x, y, x + size, y + size};
  d.score = 0.9;
  return d;
}

TEST(IouTrackerTest, AssignsNewIds) {
  IouTracker tracker;
  auto ids = tracker.Update({MakeDet(kCar, 0.1, 0.1), MakeDet(kCar, 0.6, 0.6)});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_GT(ids[0], 0);
}

TEST(IouTrackerTest, TracksAcrossFramesWithHighIou) {
  IouTracker tracker;
  auto first = tracker.Update({MakeDet(kCar, 0.1, 0.1)});
  auto second = tracker.Update({MakeDet(kCar, 0.105, 0.1)});  // tiny motion
  EXPECT_EQ(first[0], second[0]);
}

TEST(IouTrackerTest, NewIdWhenJumpTooFar) {
  IouTracker tracker;
  auto first = tracker.Update({MakeDet(kCar, 0.1, 0.1)});
  auto second = tracker.Update({MakeDet(kCar, 0.7, 0.7)});
  EXPECT_NE(first[0], second[0]);
}

TEST(IouTrackerTest, ClassMismatchNeverMatches) {
  IouTracker tracker;
  auto first = tracker.Update({MakeDet(kCar, 0.1, 0.1)});
  auto second = tracker.Update({MakeDet(kBus, 0.1, 0.1)});
  EXPECT_NE(first[0], second[0]);
}

TEST(IouTrackerTest, ReentryGetsFreshId) {
  IouTracker tracker;
  auto first = tracker.Update({MakeDet(kCar, 0.1, 0.1)});
  (void)tracker.Update({});  // object leaves
  auto back = tracker.Update({MakeDet(kCar, 0.1, 0.1)});
  EXPECT_NE(first[0], back[0]);  // FrameQL: re-entry means new trackid
}

TEST(IouTrackerTest, GreedyPrefersHigherIou) {
  IouTracker tracker;
  auto ids =
      tracker.Update({MakeDet(kCar, 0.10, 0.10), MakeDet(kCar, 0.35, 0.10)});
  // Next frame: one detection exactly on the first track, one slightly
  // shifted from the second.
  auto next =
      tracker.Update({MakeDet(kCar, 0.10, 0.10), MakeDet(kCar, 0.36, 0.10)});
  EXPECT_EQ(next[0], ids[0]);
  EXPECT_EQ(next[1], ids[1]);
}

TEST(IouTrackerTest, ExactIouTiesMatchInTrackThenDetectionOrder) {
  // Five identical open tracks and four identical detections give 20
  // candidates at IOU 1, more than std::sort's insertion-sort cutoff, so
  // only the comparator's tie-break fixes which track each detection
  // keeps: detection i takes track i.
  IouTracker tracker;
  const Detection box = MakeDet(kCar, 0.3, 0.3);
  EXPECT_EQ(tracker.Update(std::vector<Detection>(5, box)),
            (std::vector<int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(tracker.Update(std::vector<Detection>(4, box)),
            (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST(IouTrackerTest, ResetForgetsTracks) {
  IouTracker tracker;
  auto first = tracker.Update({MakeDet(kCar, 0.1, 0.1)});
  tracker.Reset();
  auto second = tracker.Update({MakeDet(kCar, 0.1, 0.1)});
  EXPECT_NE(first[0], second[0]);
}

TEST(IouTrackerTest, LongTrackStaysStable) {
  IouTracker tracker;
  int64_t id = tracker.Update({MakeDet(kCar, 0.1, 0.5)})[0];
  for (int i = 1; i < 60; ++i) {
    double x = 0.1 + i * 0.005;  // slow drift, IOU stays above 0.7
    auto ids = tracker.Update({MakeDet(kCar, x, 0.5)});
    ASSERT_EQ(ids[0], id) << "track broke at step " << i;
  }
}

TEST(IouTrackerTest, ThresholdConfigurable) {
  IouTracker strict(0.99);
  auto first = strict.Update({MakeDet(kCar, 0.1, 0.1)});
  auto second = strict.Update({MakeDet(kCar, 0.105, 0.1)});
  EXPECT_NE(first[0], second[0]);  // small shift fails a 0.99 cutoff
}

}  // namespace
}  // namespace blazeit
