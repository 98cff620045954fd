#ifndef BLAZEIT_FILTERS_CALIBRATION_H_
#define BLAZEIT_FILTERS_CALIBRATION_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace blazeit {

/// Result of calibrating a filter threshold on the held-out day.
struct CalibrationResult {
  /// Threshold achieving zero false negatives on the held-out positives.
  double threshold = 0.0;
  /// Fraction of all held-out frames passing at that threshold; the
  /// optimizer uses this to decide whether the filter pays for itself.
  double selectivity = 1.0;
  /// Number of positive frames observed during calibration.
  int64_t positives = 0;
};

/// Calibrates a filter on its held-out scores: the threshold is the
/// minimum score over positive frames (shifted down by `safety_margin`
/// times the positive score range), so no held-out positive scores below
/// it — BlazeIt's no-false-negatives operating point (Section 8). A frame
/// passes when its score is at or above the threshold. `scores[i]` and
/// `positive_mask[i]` describe frame i of the held-out day (the mask comes
/// from the labeled set). Fails with InvalidArgument if the two lengths
/// differ, and with NotFound if no positives exist, in which case the
/// optimizer must skip the filter.
Result<CalibrationResult> CalibrateNoFalseNegatives(
    const std::vector<double>& scores, const std::vector<char>& positive_mask,
    double safety_margin = 0.05);

}  // namespace blazeit

#endif  // BLAZEIT_FILTERS_CALIBRATION_H_
