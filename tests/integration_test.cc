// Cross-module integration and invariant tests: each test exercises the
// whole stack (generator -> detector -> labeled set -> NN -> executor) on a
// small catalog and asserts a paper-level invariant end to end.
#include <gtest/gtest.h>

#include "core/aggregation.h"
#include "core/baselines.h"
#include "core/engine.h"
#include "core/scrubbing.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

class IntegrationTest : public testutil::CatalogFixture<IntegrationTest> {
 public:
  static std::vector<StreamConfig> Streams() {
    return {TaipeiConfig(), RialtoConfig()};
  }
  static DayLengths Lengths() { return testutil::SmallDays(6000, 6000, 15000); }
};

TEST_F(IntegrationTest, CostOrderingNaiveGreaterThanNoScopeGreaterThanBlazeIt) {
  // The headline ordering of Figure 4, end to end on real components.
  auto naive = NaiveAggregate(stream_, kCar);
  auto oracle = NoScopeOracleAggregate(stream_, kCar);
  AggregateOptions opt = testutil::SmallNNOptions<AggregateOptions>();
  AggregationExecutor ex(stream_, opt);
  auto blazeit = ex.Run(kCar, 0.1, 0.95).value();
  EXPECT_GT(naive.cost.TotalSeconds(), oracle.cost.TotalSeconds());
  EXPECT_GT(oracle.cost.TotalSeconds(), blazeit.cost.TotalSeconds());
}

TEST_F(IntegrationTest, NoScopeOracleSpeedupTracksOccupancy) {
  // The NoScope-oracle speedup for aggregates is exactly 1/occupancy
  // (Section 10.1.1: it must run detection on occupied frames).
  auto naive = NaiveAggregate(stream_, kCar);
  auto oracle = NoScopeOracleAggregate(stream_, kCar);
  double occupancy = stream_->test_labels->Occupancy(kCar);
  double speedup = naive.cost.TotalSeconds() / oracle.cost.TotalSeconds();
  EXPECT_NEAR(speedup, 1.0 / occupancy, 0.05);
}

TEST_F(IntegrationTest, DetectionChargesDominateBaselineCost) {
  auto naive = NaiveAggregate(stream_, kCar);
  EXPECT_NEAR(naive.cost.TotalSeconds(), naive.cost.detection_seconds(),
              1e-9);
  EXPECT_EQ(naive.detection_calls, stream_->test_day->num_frames());
}

TEST_F(IntegrationTest, MultipleStreamsIndependentResults) {
  EngineOptions options = testutil::SmallEngineOptions();
  BlazeItEngine engine(catalog_, options);
  auto taipei = engine.Execute(
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1");
  auto rialto = engine.Execute(
      "SELECT FCOUNT(*) FROM rialto WHERE class = 'boat' ERROR WITHIN 0.1");
  BLAZEIT_ASSERT_OK(taipei);
  BLAZEIT_ASSERT_OK(rialto);
  // Rialto's boat density (~2.3/frame) is far above taipei's cars (~1.0).
  EXPECT_GT(rialto.value().scalar, taipei.value().scalar);
}

TEST_F(IntegrationTest, ScrubbingDoesNotChargeForSkippedFrames) {
  ScrubOptions opt = testutil::SmallNNOptions<ScrubOptions>();
  ScrubbingExecutor ex(stream_, opt);
  auto r = ex.Run({{kCar, 2}}, 3, 0).value();
  // Detection charges equal detector calls (no hidden costs).
  EXPECT_NEAR(r.cost.detection_seconds(),
              r.detection_calls * (1.0 / 3.0), 1e-6);
}

TEST_F(IntegrationTest, RepeatedExecutionDeterministic) {
  AggregateOptions opt = testutil::SmallNNOptions<AggregateOptions>();
  AggregationExecutor ex1(stream_, opt);
  AggregationExecutor ex2(stream_, opt);
  auto a = ex1.Run(kCar, 0.1, 0.95).value();
  auto b = ex2.Run(kCar, 0.1, 0.95).value();
  EXPECT_EQ(a.method, b.method);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.detection_calls, b.detection_calls);
}

}  // namespace
}  // namespace blazeit
