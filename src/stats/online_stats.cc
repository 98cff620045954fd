#include "stats/online_stats.h"

#include <cmath>

namespace blazeit {

void OnlineStats::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::StdDev() const { return std::sqrt(Variance()); }

double OnlineStats::PopulationVariance() const {
  if (count_ < 1) return 0.0;
  return m2_ / static_cast<double>(count_);
}

void OnlineStats::Reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
}

void OnlineCovariance::Add(double x, double y) {
  ++count_;
  double n = static_cast<double>(count_);
  double dx = x - mean_x_;
  mean_x_ += dx / n;
  double dy_old = y - mean_y_;
  mean_y_ += dy_old / n;
  double dy_new = y - mean_y_;
  c_ += dx * dy_new;
  m2x_ += dx * (x - mean_x_);
  m2y_ += dy_old * dy_new;
}

double OnlineCovariance::Covariance() const {
  if (count_ < 2) return 0.0;
  return c_ / static_cast<double>(count_ - 1);
}

double OnlineCovariance::VarianceX() const {
  if (count_ < 2) return 0.0;
  return m2x_ / static_cast<double>(count_ - 1);
}

double OnlineCovariance::VarianceY() const {
  if (count_ < 2) return 0.0;
  return m2y_ / static_cast<double>(count_ - 1);
}

double OnlineCovariance::Correlation() const {
  double vx = VarianceX();
  double vy = VarianceY();
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return Covariance() / std::sqrt(vx * vy);
}

}  // namespace blazeit
