#include "filters/temporal_filter.h"

#include <algorithm>

namespace blazeit {

int64_t TemporalFilter::StrideForPersistence(int64_t min_frames) {
  if (min_frames <= 2) return 1;
  // Sampling every (K-1)/2 frames guarantees at least two samples land
  // inside any K-frame window, so no K-frame event is missed even with
  // detector flicker on one sample.
  return std::max<int64_t>(1, (min_frames - 1) / 2);
}

Status TemporalFilter::SetTimeRange(int64_t begin_frame, int64_t end_frame) {
  if (begin_frame < 0)
    return Status::InvalidArgument("begin_frame must be non-negative");
  if (end_frame != -1 && end_frame <= begin_frame)
    return Status::InvalidArgument("end_frame must exceed begin_frame");
  begin_frame_ = begin_frame;
  end_frame_ = end_frame;
  return Status::OK();
}

std::vector<int64_t> TemporalFilter::CandidateFrames(
    int64_t num_frames) const {
  std::vector<int64_t> out;
  int64_t end = end_frame_ == -1 ? num_frames : std::min(end_frame_,
                                                         num_frames);
  for (int64_t t = begin_frame_; t < end; t += stride_) out.push_back(t);
  return out;
}

}  // namespace blazeit
