#include "stats/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "stats/normal.h"
#include "stats/online_stats.h"
#include "util/random.h"

namespace blazeit {

Status ValidateSamplingConfig(const SamplingConfig& config) {
  if (config.error <= 0.0)
    return Status::InvalidArgument("error tolerance must be positive");
  if (config.confidence <= 0.0 || config.confidence >= 1.0)
    return Status::InvalidArgument("confidence must be in (0,1)");
  if (config.value_range <= 0.0)
    return Status::InvalidArgument("value_range must be positive");
  return Status::OK();
}

double FinitePopulationCorrection(int64_t n, int64_t population) {
  if (population <= 1 || n >= population) return 0.0;
  return std::sqrt(static_cast<double>(population - n) /
                   static_cast<double>(population - 1));
}

Result<SampleEstimate> AdaptiveSample(int64_t num_frames,
                                      const FrameOracle& oracle,
                                      const SamplingConfig& config) {
  BLAZEIT_RETURN_NOT_OK(ValidateSamplingConfig(config));
  if (num_frames <= 0)
    return Status::InvalidArgument("num_frames must be positive");

  const double z = TwoSidedZ(config.confidence);
  // Epsilon-net lower bound: at least K / epsilon samples (Section 6.1).
  int64_t target = static_cast<int64_t>(
      std::ceil(config.value_range / config.error));
  target = std::min(target, num_frames);

  // Sampling without replacement: walk a shuffled permutation.
  Rng rng(config.seed);
  std::vector<int64_t> order(static_cast<size_t>(num_frames));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());

  OnlineStats stats;
  int64_t drawn = 0;
  SampleEstimate out;
  while (true) {
    while (drawn < target) {
      stats.Add(oracle(order[static_cast<size_t>(drawn)]));
      ++drawn;
    }
    double stderr_n = stats.StdDev() /
                      std::sqrt(static_cast<double>(stats.count())) *
                      FinitePopulationCorrection(stats.count(), num_frames);
    out.half_width = z * stderr_n;
    if (out.half_width < config.error || drawn >= num_frames) {
      out.estimate = stats.Mean();
      out.samples_used = drawn;
      out.exhausted = drawn >= num_frames;
      return out;
    }
    // Linear growth per round.
    int64_t step = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(kSampleGrowth * drawn)));
    target = std::min(num_frames, drawn + step);
  }
}

}  // namespace blazeit
