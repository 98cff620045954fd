#include "core/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "testing/test_util.h"
#include "util/string_util.h"

namespace blazeit {
namespace {

class EngineTest : public testutil::CatalogFixture<EngineTest> {
 protected:
  static void SetUpTestSuite() {
    CatalogFixture::SetUpTestSuite();
    engine_ = new BlazeItEngine(catalog_, testutil::SmallEngineOptions());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    CatalogFixture::TearDownTestSuite();
  }
  static BlazeItEngine* engine_;
};

BlazeItEngine* EngineTest::engine_ = nullptr;

TEST_F(EngineTest, AggregateQueryEndToEnd) {
  auto out = engine_->Execute(
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
      "ERROR WITHIN 0.1 AT CONFIDENCE 95%");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kAggregate);
  EXPECT_GT(out.value().scalar, 0.3);
  EXPECT_LT(out.value().scalar, 3.0);
  EXPECT_FALSE(out.value().plan_description.empty());
}

TEST_F(EngineTest, CountStarScaled) {
  auto fcount = engine_->Execute(
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1");
  auto count = engine_->Execute(
      "SELECT COUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1");
  BLAZEIT_ASSERT_OK(fcount);
  BLAZEIT_ASSERT_OK(count);
  // COUNT(*) ~ FCOUNT * num_frames (both are estimates).
  EXPECT_NEAR(count.value().scalar / 12000.0, fcount.value().scalar, 0.3);
}

TEST_F(EngineTest, ScrubbingQueryEndToEnd) {
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei GROUP BY timestamp "
      "HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kScrubbing);
  EXPECT_EQ(out.value().frames.size(), 5u);
  EXPECT_EQ(out.value().plan, PlanKind::kImportanceScrubbing);
}

TEST_F(EngineTest, SelectionQueryEndToEnd) {
  auto out = engine_->Execute(
      "SELECT * FROM taipei WHERE class = 'bus' "
      "AND redness(content) >= 0.25 AND area(mask) > 20000 "
      "GROUP BY trackid HAVING COUNT(*) > 15");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kSelection);
  EXPECT_EQ(out.value().plan, PlanKind::kFilteredSelection);
  for (const SelectionRow& row : out.value().rows) {
    EXPECT_EQ(row.detection.class_id, kBus);
  }
}

TEST_F(EngineTest, CountDistinctEndToEnd) {
  auto out = engine_->Execute(
      "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car'");
  BLAZEIT_ASSERT_OK(out);
  // Roughly the number of generated car instances (tracker fragments some).
  int64_t actual = catalog_->GetStream("taipei")
                       .value()
                       ->test_day->DistinctTracks(kCar);
  // Motion-IOU trackers fragment when the detector drops a frame of a
  // track (each gap opens a fresh trackid, per the FrameQL schema), so the
  // distinct count overcounts scene instances by a modest factor.
  EXPECT_GT(out.value().scalar, actual * 0.5);
  EXPECT_LT(out.value().scalar, actual * 10.0);
}

TEST_F(EngineTest, BinarySelectEndToEnd) {
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "FNR WITHIN 0.01 FPR WITHIN 0.01");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kBinarySelect);
  // No false positives: every returned frame really has a bus.
  const auto& counts = catalog_->GetStream("taipei")
                           .value()
                           ->test_labels->Counts(kBus);
  for (int64_t f : out.value().frames) {
    EXPECT_GT(counts[static_cast<size_t>(f)], 0);
  }
  // And detections never exceed the video length (the NN filter can only
  // remove work; with a weak NN its calibrated threshold may pass
  // everything, which is safe, just not fast).
  EXPECT_LE(out.value().cost.detection_calls(), 12000);
  EXPECT_FALSE(out.value().frames.empty());
}

// Regression: ExecuteFullScan used to report any frame with *any*
// detection, silently dropping the class predicate.
TEST_F(EngineTest, ExhaustiveScanHonorsClassPredicate) {
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus'");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kExhaustive);
  EXPECT_EQ(out.value().plan, PlanKind::kFullScan);
  const auto& bus_counts = catalog_->GetStream("taipei")
                               .value()
                               ->test_labels->Counts(kBus);
  // Exactly the frames with a bus, in ascending order.
  std::vector<int64_t> expected;
  for (size_t t = 0; t < bus_counts.size(); ++t) {
    if (bus_counts[t] > 0) expected.push_back(static_cast<int64_t>(t));
  }
  EXPECT_EQ(out.value().frames, expected);
  // The buggy behavior returned ~every frame (cars are ubiquitous).
  const auto& car_counts = catalog_->GetStream("taipei")
                               .value()
                               ->test_labels->Counts(kCar);
  int64_t any_detection_frames = 0;
  for (size_t t = 0; t < car_counts.size(); ++t) {
    if (car_counts[t] > 0 || bus_counts[t] > 0) ++any_detection_frames;
  }
  EXPECT_LT(static_cast<int64_t>(out.value().frames.size()),
            any_detection_frames);
}

// Regression: exhaustive plans used to silently drop HAVING count
// requirements (reachable when the query has no LIMIT to make it a
// scrubbing plan).
TEST_F(EngineTest, ExhaustiveScanHonorsCountRequirements) {
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei GROUP BY timestamp "
      "HAVING SUM(class='car') >= 2");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kExhaustive);
  const auto& car_counts = catalog_->GetStream("taipei")
                               .value()
                               ->test_labels->Counts(kCar);
  std::vector<int64_t> expected;
  for (size_t t = 0; t < car_counts.size(); ++t) {
    if (car_counts[t] >= 2) expected.push_back(static_cast<int64_t>(t));
  }
  EXPECT_EQ(out.value().frames, expected);
}

// Every ROI, area and content-UDF conjunct is either evaluated by the
// query kind's plans or refused up front, naming the conjunct, rather than
// answered as if it were absent. No plan evaluates string-valued UDFs.
TEST_F(EngineTest, EveryConjunctIsHonoredOrRefused) {
  // Each kind's query with one conjunct spliced in at `%s`.
  struct Kind {
    QueryKind kind;
    const char* query;
    bool roi, area, udf;  // whether the kind's plans evaluate each
  };
  const Kind kKinds[] = {
      {QueryKind::kAggregate,
       "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' AND %s "
       "ERROR WITHIN 0.1",
       false, false, false},
      {QueryKind::kCountDistinct,
       "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car' "
       "AND %s",
       false, false, false},
      {QueryKind::kScrubbing,
       "SELECT timestamp FROM taipei WHERE %s GROUP BY timestamp "
       "HAVING SUM(class='car') >= 2 LIMIT 3 GAP 50",
       false, false, false},
      {QueryKind::kSelection,
       "SELECT * FROM taipei WHERE class = 'car' AND %s", true, true, true},
      {QueryKind::kBinarySelect,
       "SELECT timestamp FROM taipei WHERE class = 'bus' AND %s "
       "FNR WITHIN 0.01 FPR WITHIN 0.01",
       false, false, false},
      {QueryKind::kExhaustive,
       "SELECT timestamp FROM taipei WHERE class = 'car' AND %s", true,
       true, false},
  };
  const char* kRoi = "xmax(mask) < 0.3";
  const char* kArea = "area(mask) > 20000";
  const char* kUdf = "redness(content) >= 0.25";
  const char* kStringUdf = "classify(content) = 'sedan'";
  for (const Kind& k : kKinds) {
    for (const auto& [conjunct, honored] :
         {std::pair{kRoi, k.roi}, {kArea, k.area}, {kUdf, k.udf},
          {kStringUdf, false}}) {
      const std::string query = StrFormat(k.query, conjunct);
      SCOPED_TRACE(query);
      auto prepared = engine_->Prepare(query);
      auto out = engine_->Execute(query);
      if (honored) {
        BLAZEIT_ASSERT_OK(prepared);
        EXPECT_EQ(prepared.value().query.kind, k.kind);
        BLAZEIT_EXPECT_OK(out);
        continue;
      }
      // Prepare refuses (so the admission queue does too), and Execute
      // returns the same refusal.
      ASSERT_FALSE(prepared.ok());
      EXPECT_EQ(prepared.status().code(), StatusCode::kUnimplemented);
      EXPECT_NE(prepared.status().message().find(conjunct),
                std::string::npos)
          << prepared.status().ToString();
      EXPECT_NE(prepared.status().message().find(QueryKindName(k.kind)),
                std::string::npos)
          << prepared.status().ToString();
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(out.status().ToString(), prepared.status().ToString());
    }
  }
}

// Regression: begin_sec/end_sec used to be enforced only by selection;
// every other executor silently scanned the whole day.
TEST_F(EngineTest, FullScanHonorsTimeRange) {
  // taipei is 30 fps; frames [600, 1801) — the inclusive <= 60 bound
  // covers the frame stamped exactly 60 s.
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "AND timestamp >= 20 AND timestamp <= 60");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kExhaustive);
  // Only window frames are scanned (and charged) at one detection each.
  EXPECT_EQ(out.value().cost.detection_calls(), 1801 - 600);
  const auto& bus_counts = catalog_->GetStream("taipei")
                               .value()
                               ->test_labels->Counts(kBus);
  std::vector<int64_t> expected;
  for (int64_t t = 600; t < 1801; ++t) {
    if (bus_counts[static_cast<size_t>(t)] > 0) expected.push_back(t);
  }
  EXPECT_EQ(out.value().frames, expected);

  // Exclusive bounds exclude the boundary frames exactly.
  auto exclusive = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "AND timestamp > 20 AND timestamp < 60");
  BLAZEIT_ASSERT_OK(exclusive);
  EXPECT_EQ(exclusive.value().cost.detection_calls(), 1800 - 601);
}

TEST_F(EngineTest, CountDistinctHonorsTimeRange) {
  auto full = engine_->Execute(
      "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car'");
  auto windowed = engine_->Execute(
      "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car' "
      "AND timestamp <= 100");
  BLAZEIT_ASSERT_OK(full);
  BLAZEIT_ASSERT_OK(windowed);
  // 100s of a 400s day: strictly less work and strictly fewer tracks
  // (the inclusive bound adds the frame stamped exactly 100 s).
  EXPECT_EQ(windowed.value().cost.detection_calls(), 100 * 30 + 1);
  EXPECT_LT(windowed.value().scalar, full.value().scalar);
  EXPECT_GT(windowed.value().scalar, 0.0);
}

TEST_F(EngineTest, ScrubbingHonorsTimeRange) {
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE timestamp >= 200 "
      "GROUP BY timestamp HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kScrubbing);
  EXPECT_FALSE(out.value().frames.empty());
  for (int64_t f : out.value().frames) EXPECT_GE(f, 200 * 30);
}

TEST_F(EngineTest, BinarySelectHonorsTimeRange) {
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "AND timestamp >= 100 AND timestamp <= 300 "
      "FNR WITHIN 0.01 FPR WITHIN 0.01");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kBinarySelect);
  EXPECT_FALSE(out.value().frames.empty());
  for (int64_t f : out.value().frames) {
    EXPECT_GE(f, 100 * 30);
    EXPECT_LE(f, 300 * 30);  // <= 300 includes the frame stamped 300 s
  }
  // The NN sweep is also windowed: held-out calibration (6000 frames)
  // plus at most the window (6001 frames), never the whole test day.
  EXPECT_LE(out.value().cost.specialized_nn_calls(), 6000 + 6001);
}

TEST_F(EngineTest, AggregateHonorsTimeRange) {
  auto out = engine_->Execute(
      "SELECT COUNT(*) FROM taipei WHERE class = 'car' "
      "AND timestamp <= 100 ERROR WITHIN 0.1 AT CONFIDENCE 95%");
  BLAZEIT_ASSERT_OK(out);
  EXPECT_EQ(out.value().kind, QueryKind::kAggregate);
  // COUNT(*) scales by the window length (3001 frames: <= 100 includes
  // the frame stamped exactly 100 s), so the estimate targets the
  // windowed ground truth — far below a whole-day total.
  const auto& car_counts = catalog_->GetStream("taipei")
                               .value()
                               ->test_labels->Counts(kCar);
  double window_total = 0;
  for (int64_t t = 0; t < 3001; ++t) {
    window_total += car_counts[static_cast<size_t>(t)];
  }
  // The estimate targets the windowed ground truth (generous tolerance:
  // it is a statistical estimate).
  EXPECT_GT(out.value().scalar, window_total * 0.5);
  EXPECT_LT(out.value().scalar, window_total * 1.5);
}

TEST_F(EngineTest, EmptyTimeRangeFails) {
  auto out = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "AND timestamp >= 100 AND timestamp <= 50");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, TimeRangePastEndOfDayIsEmptyNotAnError) {
  // The test day is 400s; a window beyond it selects zero frames, and
  // every executor agrees that means an empty/zero result.
  auto scan = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "AND timestamp >= 1000");
  BLAZEIT_ASSERT_OK(scan);
  EXPECT_TRUE(scan.value().frames.empty());
  EXPECT_EQ(scan.value().cost.detection_calls(), 0);

  auto agg = engine_->Execute(
      "SELECT COUNT(*) FROM taipei WHERE class = 'car' "
      "AND timestamp >= 1000 ERROR WITHIN 0.1");
  BLAZEIT_ASSERT_OK(agg);
  EXPECT_EQ(agg.value().scalar, 0.0);
  EXPECT_EQ(agg.value().cost.detection_calls(), 0);

  auto sel = engine_->Execute(
      "SELECT * FROM taipei WHERE class = 'bus' AND timestamp >= 1000");
  BLAZEIT_ASSERT_OK(sel);
  EXPECT_TRUE(sel.value().rows.empty());

  auto binary = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "AND timestamp >= 1000 FNR WITHIN 0.01 FPR WITHIN 0.01");
  BLAZEIT_ASSERT_OK(binary);
  EXPECT_TRUE(binary.value().frames.empty());
  EXPECT_EQ(binary.value().cost.training_frames(), 0);
  EXPECT_EQ(binary.value().cost.specialized_nn_calls(), 0);

  auto scrub = engine_->Execute(
      "SELECT timestamp FROM taipei WHERE timestamp >= 1000 "
      "GROUP BY timestamp HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50");
  BLAZEIT_ASSERT_OK(scrub);
  EXPECT_TRUE(scrub.value().frames.empty());
  EXPECT_EQ(scrub.value().cost.training_frames(), 0);
}

TEST_F(EngineTest, UnknownStreamFails) {
  auto out = engine_->Execute("SELECT * FROM venice WHERE class = 'boat'");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ParseErrorPropagates) {
  auto out = engine_->Execute("SELEC oops");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kParseError);
}

TEST_F(EngineTest, CustomUdfRegistration) {
  ASSERT_TRUE(engine_->mutable_udfs()
                  ->Register("whiteness",
                             [](const Image& img) {
                               return (img.MeanChannel(0) +
                                       img.MeanChannel(1) +
                                       img.MeanChannel(2)) /
                                      3.0;
                             })
                  .ok());
  auto out = engine_->Execute(
      "SELECT * FROM taipei WHERE class = 'bus' "
      "AND whiteness(content) >= 0.6");
  BLAZEIT_ASSERT_OK(out);
}

}  // namespace
}  // namespace blazeit
