#ifndef BLAZEIT_STATS_ONLINE_STATS_H_
#define BLAZEIT_STATS_ONLINE_STATS_H_

#include <cstdint>

namespace blazeit {

/// Numerically stable single-pass mean/variance accumulator (Welford).
class OnlineStats {
 public:
  void Add(double x);

  int64_t count() const { return count_; }
  double Mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n - 1 denominator); 0 for fewer than 2 samples.
  double Variance() const;
  double StdDev() const;
  /// Population variance (n denominator).
  double PopulationVariance() const;

  void Reset();

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Single-pass covariance accumulator for paired samples (m, t); used to
/// estimate the control-variate coefficient at every sampling round
/// (Section 6.3).
class OnlineCovariance {
 public:
  void Add(double x, double y);

  int64_t count() const { return count_; }
  double MeanX() const { return count_ > 0 ? mean_x_ : 0.0; }
  double MeanY() const { return count_ > 0 ? mean_y_ : 0.0; }
  /// Sample covariance (n - 1 denominator); 0 for fewer than 2 samples.
  double Covariance() const;
  double VarianceX() const;
  double VarianceY() const;
  /// Pearson correlation; 0 if either variance vanishes.
  double Correlation() const;

 private:
  int64_t count_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double c_ = 0.0;
  double m2x_ = 0.0;
  double m2y_ = 0.0;
};

}  // namespace blazeit

#endif  // BLAZEIT_STATS_ONLINE_STATS_H_
