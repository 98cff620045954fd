#include <gtest/gtest.h>

#include "testing/test_util.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "stats/bootstrap.h"
#include "stats/normal.h"
#include "stats/online_stats.h"
#include "util/random.h"

namespace blazeit {
namespace {

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-10);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-4);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-4);
}

TEST(NormalTest, PpfInvertsCdf) {
  for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999}) {
    EXPECT_NEAR(NormalCdf(NormalPpf(p)), p, 1e-8) << p;
  }
}

TEST(NormalTest, PpfEdges) {
  EXPECT_EQ(NormalPpf(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(NormalPpf(1.0), std::numeric_limits<double>::infinity());
  EXPECT_NEAR(NormalPpf(0.5), 0.0, 1e-10);
}

TEST(NormalTest, TwoSidedZ) {
  EXPECT_NEAR(TwoSidedZ(0.95), 1.9599, 1e-3);
  EXPECT_NEAR(TwoSidedZ(0.99), 2.5758, 1e-3);
}

TEST(OnlineStatsTest, MeanVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_NEAR(s.Mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.PopulationVariance(), 4.0, 1e-12);
  EXPECT_NEAR(s.Variance(), 4.0 * 8 / 7, 1e-12);
  EXPECT_NEAR(s.StdDev(), std::sqrt(4.0 * 8 / 7), 1e-12);
}

TEST(OnlineStatsTest, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
  s.Add(3.0);
  EXPECT_EQ(s.Mean(), 3.0);
  EXPECT_EQ(s.Variance(), 0.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0);
}

TEST(OnlineCovarianceTest, PerfectCorrelation) {
  OnlineCovariance c;
  for (int i = 0; i < 100; ++i) c.Add(i, 2.0 * i + 1);
  EXPECT_NEAR(c.Correlation(), 1.0, 1e-9);
}

TEST(OnlineCovarianceTest, AntiCorrelation) {
  OnlineCovariance c;
  for (int i = 0; i < 100; ++i) c.Add(i, -i);
  EXPECT_NEAR(c.Correlation(), -1.0, 1e-9);
}

TEST(OnlineCovarianceTest, IndependentNearZero) {
  OnlineCovariance c;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) c.Add(rng.Normal(0, 1), rng.Normal(0, 1));
  EXPECT_NEAR(c.Correlation(), 0.0, 0.03);
}

TEST(OnlineCovarianceTest, MatchesTwoPass) {
  OnlineCovariance c;
  std::vector<double> xs = {1, 4, 2, 8, 5, 7};
  std::vector<double> ys = {2, 3, 7, 1, 9, 4};
  double mx = 0, my = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    c.Add(xs[i], ys[i]);
    mx += xs[i];
    my += ys[i];
  }
  mx /= xs.size();
  my /= ys.size();
  double cov = 0;
  for (size_t i = 0; i < xs.size(); ++i) cov += (xs[i] - mx) * (ys[i] - my);
  cov /= (xs.size() - 1);
  EXPECT_NEAR(c.Covariance(), cov, 1e-12);
}

TEST(BootstrapTest, UnbiasedPredictorTightBound) {
  Rng rng(9);
  std::vector<double> pred, truth;
  for (int i = 0; i < 5000; ++i) {
    double t = rng.Poisson(1.0);
    truth.push_back(t);
    pred.push_back(t + rng.Normal(0, 0.2));  // unbiased noise
  }
  auto r = BootstrapAbsError(pred, truth, 0.95, 200, 1);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_LT(r.value().error_quantile, 0.05);
}

TEST(BootstrapTest, BiasedPredictorDetected) {
  Rng rng(10);
  std::vector<double> pred, truth;
  for (int i = 0; i < 5000; ++i) {
    double t = rng.Poisson(1.0);
    truth.push_back(t);
    pred.push_back(t + 0.3);  // systematic bias
  }
  auto r = BootstrapAbsError(pred, truth, 0.95, 200, 1);
  BLAZEIT_ASSERT_OK(r);
  EXPECT_GT(r.value().error_quantile, 0.25);
  EXPECT_NEAR(r.value().mean_abs_error, 0.3, 0.02);
}

/// The bootstrap as it was written before it drew eight resamples at a
/// time: one UniformInt per index, one serial sum per resample.
BootstrapResult HistoricalBootstrap(const std::vector<double>& predicted,
                                    const std::vector<double>& truth,
                                    double confidence, int num_resamples,
                                    uint64_t seed) {
  const int64_t n = static_cast<int64_t>(predicted.size());
  std::vector<double> diff(predicted.size());
  double mean_diff = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    diff[i] = predicted[i] - truth[i];
    mean_diff += diff[i];
  }
  mean_diff /= static_cast<double>(n);

  Rng rng(seed);
  std::vector<double> abs_errors;
  abs_errors.reserve(static_cast<size_t>(num_resamples));
  for (int b = 0; b < num_resamples; ++b) {
    double sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      sum += diff[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    }
    abs_errors.push_back(std::abs(sum / static_cast<double>(n)));
  }
  std::sort(abs_errors.begin(), abs_errors.end());
  size_t idx = static_cast<size_t>(
      std::min<double>(static_cast<double>(abs_errors.size()) - 1,
                       std::ceil(confidence * abs_errors.size())));

  BootstrapResult out;
  out.mean_abs_error = std::abs(mean_diff);
  out.error_quantile = abs_errors[idx];
  return out;
}

// Grouping resamples eight at a time must keep every bit: held-out sizes
// around the group width, resample counts that leave partial groups, and
// quantiles that pick different order statistics.
TEST(BootstrapTest, MatchesHistoricalLoopBitForBit) {
  for (int n : {1, 7, 8, 9, 1500}) {
    for (int resamples : {1, 7, 8, 9, 200}) {
      for (double confidence : {0.5, 0.95, 0.99}) {
        for (uint64_t seed : {1ULL, 2ULL, 0xabcdefULL}) {
          Rng data(seed * 131 + static_cast<uint64_t>(n));
          std::vector<double> pred, truth;
          for (int i = 0; i < n; ++i) {
            truth.push_back(data.Poisson(1.0));
            pred.push_back(truth.back() + data.Normal(0.1, 0.4));
          }
          auto got = BootstrapAbsError(pred, truth, confidence, resamples,
                                       seed);
          BLAZEIT_ASSERT_OK(got);
          const BootstrapResult want =
              HistoricalBootstrap(pred, truth, confidence, resamples, seed);
          ASSERT_EQ(std::bit_cast<uint64_t>(got.value().error_quantile),
                    std::bit_cast<uint64_t>(want.error_quantile))
              << "n " << n << " B " << resamples << " conf " << confidence
              << " seed " << seed;
          ASSERT_EQ(std::bit_cast<uint64_t>(got.value().mean_abs_error),
                    std::bit_cast<uint64_t>(want.mean_abs_error));
        }
      }
    }
  }
}

TEST(BootstrapTest, RejectsBadArgs) {
  EXPECT_FALSE(BootstrapAbsError({1.0}, {1.0, 2.0}, 0.95, 10, 1).ok());
  EXPECT_FALSE(BootstrapAbsError({}, {}, 0.95, 10, 1).ok());
  EXPECT_FALSE(BootstrapAbsError({1.0}, {1.0}, 1.5, 10, 1).ok());
  EXPECT_FALSE(BootstrapAbsError({1.0}, {1.0}, 0.95, 0, 1).ok());
}

}  // namespace
}  // namespace blazeit
