#ifndef BLAZEIT_STATS_SAMPLER_H_
#define BLAZEIT_STATS_SAMPLER_H_

#include <cstdint>
#include <functional>

#include "util/status.h"

namespace blazeit {

/// Fractional sample-size growth per adaptive round (linear increase),
/// shared by AdaptiveSample and ControlVariateSample.
inline constexpr double kSampleGrowth = 0.2;

/// Parameters of BlazeIt's adaptive sampling procedure (Section 6.1): an
/// absolute error target at a confidence level, plus the range K of the
/// estimated quantity, which sets the epsilon-net minimum sample size K/e.
struct SamplingConfig {
  /// Absolute error tolerance (FrameQL `ERROR WITHIN`).
  double error = 0.1;
  /// Confidence level (FrameQL `AT CONFIDENCE`), e.g. 0.95.
  double confidence = 0.95;
  /// Range of the estimated quantity (max per-frame count plus one).
  double value_range = 1.0;
  uint64_t seed = 1;
};

/// Outcome of a sampling run.
struct SampleEstimate {
  /// Final estimate of the population mean.
  double estimate = 0.0;
  /// Number of oracle evaluations consumed (= object-detection calls).
  int64_t samples_used = 0;
  /// Half-width of the final CLT confidence interval.
  double half_width = 0.0;
  /// True when the whole population was consumed before the bound held.
  bool exhausted = false;
};

/// The expensive per-frame statistic being averaged; in BlazeIt this calls
/// the full object detector and counts boxes.
using FrameOracle = std::function<double(int64_t frame)>;

/// Validates a sampling configuration.
Status ValidateSamplingConfig(const SamplingConfig& config);

/// Finite-population correction factor for sampling n of `population`
/// frames without replacement (0 once the population is exhausted).
double FinitePopulationCorrection(int64_t n, int64_t population);

/// Adaptive mean estimation over frames [0, num_frames): samples without
/// replacement, starting at K/e samples and growing linearly, terminating
/// when the CLT bound  Q(1 - delta/2) * sigma_hat_N < error  holds
/// (Section 6.1). The finite-population correction is applied to
/// sigma_hat_N, matching the paper's finite sample correction.
Result<SampleEstimate> AdaptiveSample(int64_t num_frames,
                                      const FrameOracle& oracle,
                                      const SamplingConfig& config);

}  // namespace blazeit

#endif  // BLAZEIT_STATS_SAMPLER_H_
