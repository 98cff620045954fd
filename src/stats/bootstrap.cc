#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace blazeit {

namespace {

constexpr size_t kGroup = 8;

/// Sums kGroup resamples side by side: lane j adds diff[draws[j * n + i]]
/// for i = 0 .. n-1, in order, exactly the one-resample loop's additions.
/// The unrolled lanes stay in registers as independent add chains.
void SumGroup(const double* diff, const uint64_t* draws, size_t n,
              double* sums) {
  double lane[kGroup] = {};
  for (size_t i = 0; i < n; ++i) {
#pragma GCC unroll 8
    for (size_t j = 0; j < kGroup; ++j) lane[j] += diff[draws[j * n + i]];
  }
  std::copy(lane, lane + kGroup, sums);
}

}  // namespace

Result<BootstrapResult> BootstrapAbsError(const std::vector<double>& predicted,
                                          const std::vector<double>& truth,
                                          double confidence,
                                          int num_resamples, uint64_t seed) {
  if (predicted.size() != truth.size())
    return Status::InvalidArgument("predicted/truth size mismatch");
  if (predicted.empty())
    return Status::InvalidArgument("held-out set must be non-empty");
  if (confidence <= 0.0 || confidence >= 1.0)
    return Status::InvalidArgument("confidence must be in (0,1)");
  if (num_resamples <= 0)
    return Status::InvalidArgument("num_resamples must be positive");

  const int64_t n = static_cast<int64_t>(predicted.size());
  // Bootstrapping the mean difference only needs the per-frame differences.
  std::vector<double> diff(predicted.size());
  double mean_diff = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    diff[i] = predicted[i] - truth[i];
    mean_diff += diff[i];
  }
  mean_diff /= static_cast<double>(n);

  // Resample b draws its n indices right after resample b - 1's, so a
  // group of kGroup resamples is kGroup * n consecutive draws: one
  // UniformIndices call, the same engine outputs in the same order as a
  // UniformInt(0, n - 1) per index. The group's sums then run side by
  // side, each adding its own indices in draw order, so every abs error
  // keeps its bits. A last, partial group leaves stale indices (still
  // < n) in the lanes past it; their sums are dropped.
  const size_t rows = static_cast<size_t>(n);
  std::vector<uint64_t> draws(kGroup * rows, 0);
  Rng rng(seed);
  std::vector<double> abs_errors;
  abs_errors.reserve(static_cast<size_t>(num_resamples));
  for (int b = 0; b < num_resamples; b += static_cast<int>(kGroup)) {
    const size_t group =
        std::min(kGroup, static_cast<size_t>(num_resamples - b));
    rng.UniformIndices(rows, group * rows, draws.data());
    double sums[kGroup];
    SumGroup(diff.data(), draws.data(), rows, sums);
    for (size_t j = 0; j < group; ++j) {
      abs_errors.push_back(std::abs(sums[j] / static_cast<double>(n)));
    }
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

}  // namespace blazeit
