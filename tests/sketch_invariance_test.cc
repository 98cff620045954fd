// The segment-sketch index's headline contract, asserted end to end:
// with EngineOptions::use_store_index on (and sketches built), every
// query answer — scalar, frames, rows — is byte-identical to the
// unindexed run. Only the *charged* simulated costs may change, and only
// downward: sketches refute segments conservatively, so skipping one can
// never change what a query returns, only what it pays. Like
// store_invariance_test, this suite owns a private store dir and stays
// deliberately cold on every run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.h"
#include "storage/segment_sketch.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

namespace fs = std::filesystem;

struct InvarianceQuery {
  const char* frameql;
  /// The sketch index provably refutes every frame (taipei has no birds),
  /// so the indexed run must charge zero detections — the strict win that
  /// proves pruning actually engaged rather than silently no-opping.
  bool expect_zero_detections;
};

const InvarianceQuery kQueries[] = {
    // Exhaustive full scans: class predicate, count requirement, ROI +
    // area conjuncts, and a class absent from the stream.
    {"SELECT timestamp FROM taipei WHERE class = 'bus'", false},
    {"SELECT timestamp FROM taipei GROUP BY timestamp "
     "HAVING SUM(class='car') >= 2",
     false},
    {"SELECT timestamp FROM taipei WHERE class = 'bus' "
     "AND timestamp >= 10 AND timestamp <= 90",
     false},
    {"SELECT timestamp FROM taipei WHERE class = 'bird'", true},
    // An ROI conjunct (the sketch refutes blocks whose cars all sit
    // right of x = 0.3) and an area conjunct no car reaches (every block
    // refuted). Full scans only: COUNT DISTINCT ignores both conjuncts.
    {"SELECT timestamp FROM taipei WHERE class = 'car' AND xmax(mask) < 0.3",
     false},
    {"SELECT timestamp FROM taipei WHERE class = 'car' "
     "AND area(mask) > 200000",
     true},
    // Count-distinct: the tracker walk may skip class-free gaps.
    {"SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'bus'", false},
    {"SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'bird'", true},
    // Scrubbing: the trained path restricts its NN sweep and verification
    // walk to candidate frames; the no-training-instances fallback scan
    // skips refuted segments outright.
    {"SELECT timestamp FROM taipei GROUP BY timestamp "
     "HAVING SUM(class='car') >= 2 LIMIT 3 GAP 50",
     false},
    {"SELECT timestamp FROM taipei GROUP BY timestamp "
     "HAVING SUM(class='bird') >= 1 LIMIT 2",
     true},
};

class SketchInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) / "blazeit-sketch-invariance")
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static void ExpectSameAnswer(const QueryOutput& indexed,
                               const QueryOutput& unindexed,
                               const char* query) {
    SCOPED_TRACE(query);
    EXPECT_EQ(indexed.kind, unindexed.kind);
    EXPECT_EQ(indexed.plan, unindexed.plan);
    EXPECT_EQ(indexed.plan_description, unindexed.plan_description);
    EXPECT_EQ(indexed.scalar, unindexed.scalar);
    EXPECT_EQ(indexed.frames, unindexed.frames);
    ASSERT_EQ(indexed.rows.size(), unindexed.rows.size());
    for (size_t i = 0; i < indexed.rows.size(); ++i) {
      EXPECT_EQ(indexed.rows[i].frame, unindexed.rows[i].frame);
      EXPECT_EQ(indexed.rows[i].detection.rect,
                unindexed.rows[i].detection.rect);
      EXPECT_EQ(indexed.rows[i].detection.score,
                unindexed.rows[i].detection.score);
    }
    // The index only ever removes charged work.
    EXPECT_LE(indexed.cost.detection_calls(), unindexed.cost.detection_calls());
    EXPECT_LE(indexed.cost.specialized_nn_calls(),
              unindexed.cost.specialized_nn_calls());
    EXPECT_LE(indexed.cost.TotalSeconds(), unindexed.cost.TotalSeconds());
  }

  std::string dir_;
};

TEST_F(SketchInvarianceTest, IndexedAnswersMatchUnindexedBitForBit) {
  // Pass 1: populate the store (records flush when the catalog dies).
  {
    VideoCatalog catalog;
    BLAZEIT_ASSERT_OK(catalog.EnableDetectionStore(dir_));
    BLAZEIT_ASSERT_OK(catalog.AddStream(
        TaipeiConfig(), testutil::SmallDays(2000, 2000, 4000)));
    BlazeItEngine engine(&catalog, testutil::SmallEngineOptions());
    for (const InvarianceQuery& q : kQueries) {
      BLAZEIT_ASSERT_OK(engine.Execute(q.frameql).status());
    }
  }

  // Pass 2: warm store, sketches built; compare unindexed vs indexed
  // inside one catalog so both runs replay identical detections.
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.EnableDetectionStore(dir_));
  BLAZEIT_ASSERT_OK(catalog.AddStream(
      TaipeiConfig(), testutil::SmallDays(2000, 2000, 4000)));
  StreamData* stream = catalog.GetStream("taipei").value();
  ASSERT_NE(stream->detection_store, nullptr);
  BLAZEIT_ASSERT_OK(
      stream->detection_store->BuildSketches(stream->test_detections_ns));
  ASSERT_TRUE(SketchIndex::Load(stream->detection_store,
                                stream->test_detections_ns)
                  .valid());

  BlazeItEngine engine(&catalog, testutil::SmallEngineOptions());
  for (const InvarianceQuery& q : kQueries) {
    auto unindexed = engine.Execute(q.frameql);
    BLAZEIT_ASSERT_OK(unindexed);

    engine.mutable_options()->use_store_index = true;
    auto indexed = engine.Execute(q.frameql);
    engine.mutable_options()->use_store_index = false;
    BLAZEIT_ASSERT_OK(indexed);

    ExpectSameAnswer(indexed.value(), unindexed.value(), q.frameql);
    if (q.expect_zero_detections) {
      SCOPED_TRACE(q.frameql);
      EXPECT_GT(unindexed.value().cost.detection_calls(), 0);
      EXPECT_EQ(indexed.value().cost.detection_calls(), 0);
    }
  }
}

TEST_F(SketchInvarianceTest, StaleSketchesFallBackToUnindexedPath) {
  // use_store_index with *no* sketches built must behave exactly like the
  // unindexed engine — same answers, same costs (nothing to consult).
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.EnableDetectionStore(dir_));
  BLAZEIT_ASSERT_OK(catalog.AddStream(
      TaipeiConfig(), testutil::SmallDays(1000, 1000, 2000)));
  BlazeItEngine engine(&catalog, testutil::SmallEngineOptions());
  const char* query = "SELECT timestamp FROM taipei WHERE class = 'bus'";
  auto plain = engine.Execute(query);
  BLAZEIT_ASSERT_OK(plain);
  engine.mutable_options()->use_store_index = true;
  auto no_sketches = engine.Execute(query);
  BLAZEIT_ASSERT_OK(no_sketches);
  EXPECT_EQ(no_sketches.value().frames, plain.value().frames);
  EXPECT_EQ(no_sketches.value().cost.detection_calls(),
            plain.value().cost.detection_calls());
  EXPECT_EQ(no_sketches.value().cost.TotalSeconds(),
            plain.value().cost.TotalSeconds());
}

}  // namespace
}  // namespace blazeit
