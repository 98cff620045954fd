// Plan choice is rule-based (Section 5) and each rule lives in the
// executor it governs, so these tests run queries through the engine and
// assert on the plan it reports having run.
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

class OptimizerTest : public testutil::CatalogFixture<OptimizerTest> {
 public:
  static DayLengths Lengths() { return testutil::SmallDays(3000, 2000, 4000); }

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

  static QueryOutput Run(const std::string& frameql) {
    Result<QueryOutput> out = engine_->Execute(frameql);
    EXPECT_TRUE(testutil::IsOk(out)) << frameql;
    return out.ok() ? out.value() : QueryOutput();
  }

  static BlazeItEngine* engine_;
};

BlazeItEngine* OptimizerTest::engine_ = nullptr;

bool Mentions(const QueryOutput& out, const char* text) {
  return out.plan_description.find(text) != std::string::npos;
}

TEST_F(OptimizerTest, AggregateWithDataSpecializes) {
  const QueryOutput out = Run(
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1");
  EXPECT_EQ(out.plan, PlanKind::kSpecializedAggregation);
  EXPECT_TRUE(Mentions(out, "positive training frames"))
      << out.plan_description;
  // The description names the Algorithm 1 branch that ran.
  EXPECT_TRUE(Mentions(out, "query-rewrite") ||
              Mentions(out, "control-variates"))
      << out.plan_description;
}

TEST_F(OptimizerTest, AggregateWithoutDataUsesAqp) {
  const QueryOutput out = Run(
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'person' ERROR WITHIN 0.1");
  EXPECT_EQ(out.plan, PlanKind::kAqpAggregation);
  EXPECT_TRUE(Mentions(out, "plain AQP")) << out.plan_description;
}

TEST_F(OptimizerTest, ScrubbingWithInstancesUsesImportanceSampling) {
  const QueryOutput out =
      Run("SELECT timestamp FROM taipei GROUP BY timestamp "
          "HAVING SUM(class='car') >= 1 LIMIT 5");
  EXPECT_EQ(out.plan, PlanKind::kImportanceScrubbing);
  EXPECT_TRUE(Mentions(out, "matching training frames"))
      << out.plan_description;
}

TEST_F(OptimizerTest, ScrubbingWithoutInstancesFallsBackToScan) {
  const QueryOutput out =
      Run("SELECT timestamp FROM taipei GROUP BY timestamp "
          "HAVING SUM(class='car') >= 50 LIMIT 5");
  EXPECT_EQ(out.plan, PlanKind::kScanScrubbing);
  EXPECT_TRUE(Mentions(out, "sequential scan")) << out.plan_description;
}

TEST_F(OptimizerTest, SelectionListsDeployedFilters) {
  const QueryOutput out =
      Run("SELECT * FROM taipei WHERE class = 'bus' "
          "AND redness(content) >= 0.25 AND xmin(mask) >= 0.4 "
          "GROUP BY trackid HAVING COUNT(*) > 15");
  EXPECT_EQ(out.plan, PlanKind::kFilteredSelection);
  // The exact filters always deploy; the statistical ones only when
  // calibration finds them selective.
  EXPECT_TRUE(Mentions(out, "temporal")) << out.plan_description;
  EXPECT_TRUE(Mentions(out, "spatial")) << out.plan_description;
}

TEST_F(OptimizerTest, BinaryAndDistinctPlans) {
  EXPECT_EQ(Run("SELECT timestamp FROM taipei WHERE class = 'car' "
                "FNR WITHIN 0.01")
                .plan,
            PlanKind::kBinaryDetection);
  EXPECT_EQ(Run("SELECT COUNT(DISTINCT trackid) FROM taipei "
                "WHERE class = 'car'")
                .plan,
            PlanKind::kTrackerCountDistinct);
}

// Every query kind says why it ran its plan. Binary selection, COUNT
// DISTINCT and full scans used to return an empty description.
TEST_F(OptimizerTest, EveryQueryKindDescribesItsPlan) {
  const struct {
    const char* frameql;
    QueryKind kind;
  } cases[] = {
      {"SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1",
       QueryKind::kAggregate},
      {"SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car'",
       QueryKind::kCountDistinct},
      {"SELECT timestamp FROM taipei GROUP BY timestamp "
       "HAVING SUM(class='car') >= 2 LIMIT 5",
       QueryKind::kScrubbing},
      {"SELECT * FROM taipei WHERE class = 'bus' "
       "GROUP BY trackid HAVING COUNT(*) > 15",
       QueryKind::kSelection},
      {"SELECT timestamp FROM taipei WHERE class = 'bus' FNR WITHIN 0.01",
       QueryKind::kBinarySelect},
      {"SELECT timestamp FROM taipei WHERE class = 'bus'",
       QueryKind::kExhaustive},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.frameql);
    const QueryOutput out = Run(c.frameql);
    EXPECT_EQ(out.kind, c.kind);
    EXPECT_FALSE(out.plan_description.empty())
        << QueryKindName(c.kind) << " ran " << PlanKindName(out.plan);
  }
}

// With no positive training frame, binary selection cannot train its
// filter and verifies every frame: that is a full scan, and the plan says
// so rather than naming the NN filter it never built.
TEST_F(OptimizerTest, BinarySelectWithoutTrainingDataIsFullScan) {
  const QueryOutput out = Run(
      "SELECT timestamp FROM taipei WHERE class = 'bird' FNR WITHIN 0.01");
  EXPECT_EQ(out.kind, QueryKind::kBinarySelect);
  EXPECT_EQ(out.plan, PlanKind::kFullScan);
  EXPECT_EQ(out.cost.training_frames(), 0);
  EXPECT_EQ(out.cost.detection_calls(), 4000);
  EXPECT_TRUE(Mentions(out, "no positive training frame"))
      << out.plan_description;
}

TEST_F(OptimizerTest, PlanKindNamesDistinct) {
  EXPECT_STRNE(PlanKindName(PlanKind::kSpecializedAggregation),
               PlanKindName(PlanKind::kAqpAggregation));
  EXPECT_STRNE(PlanKindName(PlanKind::kImportanceScrubbing),
               PlanKindName(PlanKind::kScanScrubbing));
}

}  // namespace
}  // namespace blazeit
