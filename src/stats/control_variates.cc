#include "stats/control_variates.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "stats/normal.h"
#include "stats/online_stats.h"
#include "util/random.h"

namespace blazeit {

ControlVariate MakeControlVariate(
    int64_t num_frames, std::function<double(int64_t frame)> proxy) {
  OnlineStats stats;
  for (int64_t t = 0; t < num_frames; ++t) stats.Add(proxy(t));
  ControlVariate cv;
  cv.tau = stats.Mean();
  cv.variance = stats.PopulationVariance();
  cv.proxy = std::move(proxy);
  return cv;
}

Result<SampleEstimate> ControlVariateSample(int64_t num_frames,
                                            const FrameOracle& oracle,
                                            const ControlVariate& variate,
                                            const SamplingConfig& config) {
  BLAZEIT_RETURN_NOT_OK(ValidateSamplingConfig(config));
  if (num_frames <= 0)
    return Status::InvalidArgument("num_frames must be positive");
  if (!variate.proxy)
    return Status::InvalidArgument("control variate proxy must be set");

  const double z = TwoSidedZ(config.confidence);
  int64_t target = static_cast<int64_t>(
      std::ceil(config.value_range / config.error));
  target = std::min(target, num_frames);

  Rng rng(config.seed);
  std::vector<int64_t> order(static_cast<size_t>(num_frames));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());

  OnlineCovariance joint;  // x = expensive m, y = cheap proxy t
  int64_t drawn = 0;
  SampleEstimate out;
  while (true) {
    while (drawn < target) {
      int64_t frame = order[static_cast<size_t>(drawn)];
      joint.Add(oracle(frame), variate.proxy(frame));
      ++drawn;
    }
    // Optimal coefficient from the sampled covariance and the *exact*
    // proxy variance (computable because the proxy is cheap).
    double c = 0.0;
    double var_reduced = joint.VarianceX();
    if (variate.variance > 0.0 && joint.count() >= 2) {
      c = -joint.Covariance() / variate.variance;
      var_reduced = joint.VarianceX() -
                    joint.Covariance() * joint.Covariance() /
                        variate.variance;
      var_reduced = std::max(var_reduced, 0.0);
    }
    double stderr_n = std::sqrt(var_reduced /
                                static_cast<double>(joint.count())) *
                      FinitePopulationCorrection(joint.count(), num_frames);
    out.half_width = z * stderr_n;
    if (out.half_width < config.error || drawn >= num_frames) {
      out.estimate = joint.MeanX() + c * (joint.MeanY() - variate.tau);
      out.samples_used = drawn;
      out.exhausted = drawn >= num_frames;
      return out;
    }
    int64_t step = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(kSampleGrowth * drawn)));
    target = std::min(num_frames, drawn + step);
  }
}

}  // namespace blazeit
