#ifndef BLAZEIT_FILTERS_TEMPORAL_FILTER_H_
#define BLAZEIT_FILTERS_TEMPORAL_FILTER_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace blazeit {

/// Temporal filtering (Section 8): restricts the candidate frame set by
/// (a) time-range constraints in the query, and (b) subsampling derived
/// from persistence constraints — an object required to be visible for at
/// least K frames is seen by sampling every (K-1)/2 frames, so most frames
/// never need to be decoded or detected.
class TemporalFilter {
 public:
  TemporalFilter() = default;

  /// Derives the subsampling stride from a persistence constraint of at
  /// least `min_frames` consecutive frames (paper: K=30 -> every 14th).
  static int64_t StrideForPersistence(int64_t min_frames);

  void set_stride(int64_t stride) { stride_ = stride; }
  int64_t stride() const { return stride_; }

  /// Restricts to [begin, end) frames ("query the video from 10AM to
  /// 11AM"); pass end = -1 for "until the end of the video".
  Status SetTimeRange(int64_t begin_frame, int64_t end_frame);
  int64_t begin_frame() const { return begin_frame_; }
  int64_t end_frame() const { return end_frame_; }

  /// Candidate frames of a `num_frames`-long video after both
  /// restrictions.
  std::vector<int64_t> CandidateFrames(int64_t num_frames) const;

 private:
  int64_t stride_ = 1;
  int64_t begin_frame_ = 0;
  int64_t end_frame_ = -1;  // -1 = end of video
};

}  // namespace blazeit

#endif  // BLAZEIT_FILTERS_TEMPORAL_FILTER_H_
