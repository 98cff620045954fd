#include "core/aggregation.h"

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

class AggregationTest : public testutil::CatalogFixture<AggregationTest> {
 protected:
  static AggregateOptions FastOptions() {
    return testutil::SmallNNOptions<AggregateOptions>();
  }
  static double TestTruth(int class_id) {
    const auto& counts = stream_->test_labels->Counts(class_id);
    double sum = 0;
    for (int c : counts) sum += c;
    return sum / static_cast<double>(counts.size());
  }
};

TEST_F(AggregationTest, ValidatesArguments) {
  AggregationExecutor ex(stream_, FastOptions());
  EXPECT_FALSE(ex.Run(kCar, 0.0, 0.95).ok());
  EXPECT_FALSE(ex.Run(kCar, 0.1, 1.0).ok());
}

TEST_F(AggregationTest, EstimateWithinTolerance) {
  AggregationExecutor ex(stream_, FastOptions());
  auto r = ex.Run(kCar, 0.1, 0.95);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_NEAR(r.value().estimate, TestTruth(kCar), 0.2);
  EXPECT_GT(r.value().cost.TotalSeconds(), 0.0);
}

TEST_F(AggregationTest, ChargesFarLessThanNaive) {
  AggregationExecutor ex(stream_, FastOptions());
  auto r = ex.Run(kCar, 0.1, 0.95).value();
  auto naive = NaiveAggregate(stream_, kCar);
  EXPECT_LT(r.cost.TotalSeconds(), naive.cost.TotalSeconds() / 5);
}

TEST_F(AggregationTest, MissingClassFallsBackToAqp) {
  // No birds in taipei: Algorithm 1's precondition fails.
  AggregationExecutor ex(stream_, FastOptions());
  auto r = ex.Run(kBird, 0.1, 0.95);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_EQ(r.value().method, AggregateMethod::kPlainAqp);
  EXPECT_NEAR(r.value().estimate, 0.0, 0.05);
}

TEST_F(AggregationTest, TightErrorForcesControlVariates) {
  // At 0.01 error no specialized NN passes the bootstrap test, so control
  // variates (with detector sampling) must kick in.
  AggregateOptions opt = FastOptions();
  AggregationExecutor ex(stream_, opt);
  auto r = ex.Run(kCar, 0.01, 0.95);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_EQ(r.value().method, AggregateMethod::kControlVariates);
  EXPECT_GT(r.value().detection_calls, 0);
  EXPECT_GT(r.value().nn_correlation, 0.1);
  EXPECT_NEAR(r.value().estimate, TestTruth(kCar), 0.05);
}

TEST_F(AggregationTest, DisablingRewriteUsesControlVariates) {
  AggregateOptions opt = FastOptions();
  opt.allow_query_rewrite = false;
  AggregationExecutor ex(stream_, opt);
  auto r = ex.Run(kCar, 0.1, 0.95);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_EQ(r.value().method, AggregateMethod::kControlVariates);
}

TEST_F(AggregationTest, NnCountsExposedAfterRun) {
  AggregationExecutor ex(stream_, FastOptions());
  auto r = ex.Run(kCar, 0.1, 0.95);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_EQ(ex.nn_counts().size(),
            static_cast<size_t>(stream_->test_day->num_frames()));
  ASSERT_TRUE(ex.nn_bootstrap().has_value());
  EXPECT_GE(ex.nn_bootstrap()->error_quantile, 0.0);
}

TEST_F(AggregationTest, BaselinesAreExact) {
  auto naive = NaiveAggregate(stream_, kCar);
  auto oracle = NoScopeOracleAggregate(stream_, kCar);
  EXPECT_DOUBLE_EQ(naive.estimate, TestTruth(kCar));
  EXPECT_DOUBLE_EQ(oracle.estimate, TestTruth(kCar));
  // The oracle only detects occupied frames.
  EXPECT_LT(oracle.detection_calls, naive.detection_calls);
  EXPECT_EQ(naive.detection_calls, stream_->test_day->num_frames());
}

TEST_F(AggregationTest, NaiveAqpRespectsTolerance) {
  auto r = NaiveAqpAggregate(stream_, kCar, 0.1, 0.95, 3);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_NEAR(r.value().estimate, TestTruth(kCar), 0.2);
  EXPECT_LT(r.value().samples_used, stream_->test_day->num_frames());
}

TEST_F(AggregationTest, MethodNames) {
  EXPECT_STREQ(AggregateMethodName(AggregateMethod::kQueryRewrite),
               "query-rewrite");
  EXPECT_STREQ(AggregateMethodName(AggregateMethod::kControlVariates),
               "control-variates");
  EXPECT_STREQ(AggregateMethodName(AggregateMethod::kPlainAqp), "plain-aqp");
}

}  // namespace
}  // namespace blazeit
