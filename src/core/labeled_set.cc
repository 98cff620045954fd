#include "core/labeled_set.h"

#include <algorithm>

#include "util/check.h"

namespace blazeit {

LabeledSet::LabeledSet(const SyntheticVideo* day,
                       const ObjectDetector* detector,
                       double score_threshold)
    : day_(day), detector_(detector), score_threshold_(score_threshold) {}

void LabeledSet::Build() const {
  if (built_.load(std::memory_order_acquire)) return;
  util::MutexLock lock(build_mu_);
  if (built_.load(std::memory_order_relaxed)) return;
  const size_t n = static_cast<size_t>(day_->num_frames());
  for (std::vector<int>& counts : counts_) counts.assign(n, 0);
  detections_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    std::vector<Detection> dets =
        detector_->Detect(*day_, static_cast<int64_t>(t));
    dets.erase(std::remove_if(dets.begin(), dets.end(),
                              [this](const Detection& det) {
                                return det.score < score_threshold_;
                              }),
               dets.end());
    for (const Detection& det : dets) ++counts_.at(det.class_id)[t];
    detections_[t] = std::move(dets);
  }
  built_.store(true, std::memory_order_release);
}

const std::vector<int>& LabeledSet::Counts(int class_id) const {
  Build();
  return counts_.at(class_id);
}

const std::vector<Detection>& LabeledSet::DetectionsAt(int64_t frame) const {
  Build();
  BLAZEIT_CHECK(frame >= 0 && frame < day_->num_frames())
      << " frame " << frame << " outside a day of " << day_->num_frames();
  return detections_[static_cast<size_t>(frame)];
}

double LabeledSet::Occupancy(int class_id) const {
  const std::vector<int>& counts = Counts(class_id);
  int64_t occupied = 0;
  for (int c : counts) {
    if (c > 0) ++occupied;
  }
  return counts.empty() ? 0.0
                        : static_cast<double>(occupied) /
                              static_cast<double>(counts.size());
}

int LabeledSet::MaxCount(int class_id) const {
  const std::vector<int>& counts = Counts(class_id);
  int max_c = 0;
  for (int c : counts) max_c = std::max(max_c, c);
  return max_c;
}

}  // namespace blazeit
