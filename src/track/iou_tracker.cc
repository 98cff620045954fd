#include "track/iou_tracker.h"

#include <algorithm>

namespace blazeit {

std::vector<int64_t> IouTracker::Update(
    const std::vector<Detection>& detections) {
  const size_t n = detections.size();
  std::vector<int64_t> assigned(n, 0);
  std::vector<bool> det_matched(n, false);
  std::vector<bool> track_matched(open_tracks_.size(), false);

  // Greedy matching: repeatedly take the highest-IOU (track, detection)
  // pair above the threshold among unmatched ones.
  struct Candidate {
    double iou;
    size_t track;
    size_t det;
  };
  std::vector<Candidate> candidates;
  for (size_t ti = 0; ti < open_tracks_.size(); ++ti) {
    for (size_t di = 0; di < n; ++di) {
      if (open_tracks_[ti].class_id != detections[di].class_id) continue;
      double iou = Iou(open_tracks_[ti].rect, detections[di].rect);
      if (iou >= iou_threshold_) candidates.push_back({iou, ti, di});
    }
  }
  // Exact IOU ties go to the lower (track, detection) index pair, so the
  // matching is canonical rather than whatever order the sort leaves
  // equal keys in.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.iou != b.iou) return a.iou > b.iou;
              if (a.track != b.track) return a.track < b.track;
              return a.det < b.det;
            });

  std::vector<Track> next_tracks;
  for (const Candidate& c : candidates) {
    if (track_matched[c.track] || det_matched[c.det]) continue;
    track_matched[c.track] = true;
    det_matched[c.det] = true;
    assigned[c.det] = open_tracks_[c.track].id;
    next_tracks.push_back({open_tracks_[c.track].id,
                           detections[c.det].class_id,
                           detections[c.det].rect});
  }
  // Unmatched detections open new tracks.
  for (size_t di = 0; di < n; ++di) {
    if (det_matched[di]) continue;
    int64_t id = next_track_id_++;
    assigned[di] = id;
    next_tracks.push_back({id, detections[di].class_id, detections[di].rect});
  }
  // Unmatched old tracks are dropped: the object left the scene (and will
  // get a fresh id if it re-enters, per the FrameQL schema).
  open_tracks_ = std::move(next_tracks);
  return assigned;
}

void IouTracker::Reset() { open_tracks_.clear(); }

}  // namespace blazeit
