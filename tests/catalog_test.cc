#include "core/catalog.h"

#include <gtest/gtest.h>

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

TEST(LabeledSetTest, CountsMatchDetections) {
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(), ShortDays()));
  StreamData* s = catalog.GetStream("taipei").value();
  const auto& counts = s->test_labels->Counts(kCar);
  ASSERT_EQ(counts.size(), 3000u);
  for (int64_t t = 0; t < 3000; t += 211) {
    auto dets = s->test_labels->DetectionsAt(t);
    EXPECT_EQ(static_cast<size_t>(counts[static_cast<size_t>(t)]),
              FilterClass(dets, kCar, 0.0).size());
    for (const auto& d : dets) EXPECT_GE(d.score, s->score_threshold());
  }
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

}  // namespace
}  // namespace blazeit
