#include "core/catalog.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

DayLengths ShortDays() { return testutil::SmallDays(2000, 2000, 3000); }

TEST(CatalogTest, AddAndGet) {
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), ShortDays()));
  EXPECT_TRUE(catalog.Contains("taipei"));
  auto stream = catalog.GetStream("taipei");
  BLAZEIT_ASSERT_OK(stream);
  EXPECT_EQ(stream.value()->train_day->num_frames(), 2000);
  EXPECT_EQ(stream.value()->test_day->num_frames(), 3000);
  EXPECT_EQ(stream.value()->config.name, "taipei");
}

TEST(CatalogTest, DuplicateRejected) {
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), ShortDays()));
  EXPECT_FALSE(catalog.AddStream(TaipeiConfig(), ShortDays()).ok());
}

TEST(CatalogTest, UnknownStreamNotFound) {
  VideoCatalog catalog;
  auto r = catalog.GetStream("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, InvalidConfigRejected) {
  VideoCatalog catalog;
  StreamConfig bad = TaipeiConfig();
  bad.classes.clear();
  EXPECT_FALSE(catalog.AddStream(bad, ShortDays()).ok());
}

TEST(CatalogTest, DaysAreIndependent) {
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), ShortDays()));
  StreamData* s = catalog.GetStream("taipei").value();
  // Different seeds -> different instance realizations.
  EXPECT_NE(s->train_day->DistinctTracks(kCar),
            s->test_day->DistinctTracks(kCar));
  EXPECT_EQ(s->train_day->seed(), kTrainDaySeed);
  EXPECT_EQ(s->test_day->seed(), kTestDaySeed);
}

TEST(CatalogTest, StreamNamesSorted) {
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), ShortDays()));
  BLAZEIT_ASSERT_OK(catalog.AddStream(RialtoConfig(), ShortDays()));
  auto names = catalog.StreamNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "rialto");
  EXPECT_EQ(names[1], "taipei");
}

TEST(LabeledSetTest, OccupancyNearConfig) {
  VideoCatalog catalog;
  DayLengths lengths;
  lengths.train = 2000;
  lengths.held_out = 2000;
  lengths.test = 20000;
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), lengths));
  StreamData* s = catalog.GetStream("taipei").value();
  // Detector misses some small objects, so measured occupancy sits a bit
  // below the scene-level target.
  double occ = s->test_labels->Occupancy(kCar);
  EXPECT_GT(occ, 0.45);
  EXPECT_LT(occ, 0.75);
}

TEST(LabeledSetTest, MaxCountPositive) {
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), ShortDays()));
  StreamData* s = catalog.GetStream("taipei").value();
  EXPECT_GE(s->train_labels->MaxCount(kCar), 1);
  EXPECT_EQ(s->train_labels->MaxCount(kBird), 0);
}

// --- The labeled set holds the day's detections; nothing detects twice ---

TEST(LabeledSetTest, DetectsEachFrameOnceOnFirstRead) {
  auto day = SyntheticVideo::Create(TaipeiConfig(), kTestDaySeed, 400).value();
  const int64_t n = day->num_frames();
  SimulatedDetector inner;
  for (bool counts_first : {true, false}) {
    SCOPED_TRACE(counts_first ? "Counts first" : "DetectionsAt first");
    testutil::CountingDetector counting(&inner);
    LabeledSet labels(day.get(), &counting,
                      TaipeiConfig().detection_threshold);
    EXPECT_EQ(counting.calls(), 0);  // the build is lazy
    if (counts_first) {
      (void)labels.Counts(kCar);
    } else {
      (void)labels.DetectionsAt(n / 2);
    }
    EXPECT_EQ(counting.calls(), n);
    for (int round = 0; round < 2; ++round) {
      for (int64_t t = 0; t < n; ++t) (void)labels.DetectionsAt(t);
      for (int c = 0; c < kNumClasses; ++c) {
        (void)labels.Counts(c);
        (void)labels.Occupancy(c);
        (void)labels.MaxCount(c);
      }
    }
    EXPECT_EQ(counting.calls(), n);
    EXPECT_THROW((void)labels.Counts(kNumClasses), std::out_of_range);
    EXPECT_THROW((void)labels.Counts(-1), std::out_of_range);
  }
}

/// Every frame of the stream's test day: DetectionsAt is the detector's
/// output at the stream threshold, and each class's Counts is the tally
/// of DetectionsAt.
void ExpectTestLabelsReplayDetector(const StreamData& s) {
  const LabeledSet& labels = *s.test_labels;
  const SyntheticVideo& day = *s.test_day;
  std::array<std::vector<int>, kNumClasses> tally;
  for (std::vector<int>& counts : tally) {
    counts.assign(static_cast<size_t>(day.num_frames()), 0);
  }
  for (int64_t t = 0; t < day.num_frames(); ++t) {
    SCOPED_TRACE("frame " + std::to_string(t));
    std::vector<Detection> expected;
    for (const Detection& det : s.detector_impl->Detect(day, t)) {
      if (det.score >= s.config.detection_threshold) expected.push_back(det);
    }
    const std::vector<Detection>& got = labels.DetectionsAt(t);
    testutil::ExpectSameDetections(got, expected);
    for (const Detection& det : got) {
      ++tally[static_cast<size_t>(det.class_id)][static_cast<size_t>(t)];
    }
  }
  for (int c = 0; c < kNumClasses; ++c) {
    EXPECT_EQ(labels.Counts(c), tally[static_cast<size_t>(c)])
        << "class " << c;
  }
}

TEST(LabeledSetTest, CountsMatchDetections) {
  const DayLengths days = testutil::SmallDays(200, 200, 600);
  {
    SCOPED_TRACE("no store");
    VideoCatalog catalog;
    BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), days));
    ExpectTestLabelsReplayDetector(*catalog.GetStream("taipei").value());
  }
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "blazeit-labels-store")
          .string();
  std::filesystem::remove_all(dir);
  for (bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm store" : "cold store");
    VideoCatalog catalog;
    BLAZEIT_ASSERT_OK(catalog.EnableDetectionStore(dir));
    BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), days));
    const StreamData& s = *catalog.GetStream("taipei").value();
    ExpectTestLabelsReplayDetector(s);
    const auto* cached = dynamic_cast<const CachedDetector*>(s.detector.get());
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->store_hits(), warm ? days.test : 0);
    EXPECT_EQ(cached->store_misses(), warm ? 0 : days.test);
  }
  std::filesystem::remove_all(dir);
}

TEST(LabeledSetTest, RacingFirstReadsBuildOnceAndAgree) {
  auto day = SyntheticVideo::Create(TaipeiConfig(), kTestDaySeed, 1024).value();
  const int64_t n = day->num_frames();
  const double threshold = TaipeiConfig().detection_threshold;
  SimulatedDetector inner;
  LabeledSet reference(day.get(), &inner, threshold);
  testutil::CountingDetector counting(&inner);
  LabeledSet labels(day.get(), &counting, threshold);
  std::vector<std::vector<Detection>> seen(static_cast<size_t>(n));
  std::vector<int> cars(static_cast<size_t>(n));
  // Sixteen shards on four lanes: each shard's first read races the
  // others into the lazy build.
  exec::ThreadPool::Instance().Reconfigure(4);
  exec::ParallelFor(n, /*shard_size=*/64, [&](int64_t begin, int64_t end,
                                               int /*slot*/) {
    for (int64_t t = begin; t < end; ++t) {
      seen[static_cast<size_t>(t)] = labels.DetectionsAt(t);
      cars[static_cast<size_t>(t)] =
          labels.Counts(kCar)[static_cast<size_t>(t)];
    }
  });
  exec::ThreadPool::Instance().Reconfigure(
      exec::ThreadPool::ThreadsFromEnv());
  EXPECT_EQ(counting.calls(), n);
  for (int64_t t = 0; t < n; ++t) {
    SCOPED_TRACE("frame " + std::to_string(t));
    testutil::ExpectSameDetections(seen[static_cast<size_t>(t)],
                                   reference.DetectionsAt(t));
    EXPECT_EQ(cars[static_cast<size_t>(t)],
              reference.Counts(kCar)[static_cast<size_t>(t)]);
  }
}

}  // namespace
}  // namespace blazeit
