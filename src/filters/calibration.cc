#include "filters/calibration.h"

#include <algorithm>
#include <limits>

namespace blazeit {

Result<CalibrationResult> CalibrateNoFalseNegatives(
    const std::vector<double>& scores, const std::vector<char>& positive_mask,
    double safety_margin) {
  if (positive_mask.size() != scores.size())
    return Status::InvalidArgument(
        "positive_mask must cover every held-out frame");

  double min_pos = std::numeric_limits<double>::infinity();
  double max_pos = -std::numeric_limits<double>::infinity();
  int64_t positives = 0;
  for (size_t t = 0; t < scores.size(); ++t) {
    if (positive_mask[t]) {
      ++positives;
      min_pos = std::min(min_pos, scores[t]);
      max_pos = std::max(max_pos, scores[t]);
    }
  }
  if (positives == 0)
    return Status::NotFound(
        "no positive frames on the held-out day; filter cannot be "
        "calibrated");

  CalibrationResult out;
  out.positives = positives;
  // Shift the threshold below the weakest positive by a fraction of the
  // positive score range, hedging against distribution shift on the test
  // day (the paper assumes no model drift but still thresholds to err on
  // the side of false positives).
  out.threshold = min_pos - safety_margin * std::max(0.0, max_pos - min_pos);

  int64_t passing = 0;
  for (double s : scores) {
    if (s >= out.threshold) ++passing;
  }
  out.selectivity =
      static_cast<double>(passing) / static_cast<double>(scores.size());
  return out;
}

}  // namespace blazeit
