#ifndef BLAZEIT_CORE_LABELED_SET_H_
#define BLAZEIT_CORE_LABELED_SET_H_

#include <array>
#include <atomic>
#include <vector>

#include "detect/detector.h"
#include "util/mutex.h"
#include "video/synthetic_video.h"

namespace blazeit {

/// The labeled set of Section 2: one day of video annotated by the full
/// object detector, used to train specialized NNs, calibrate filter
/// thresholds, and (on the test day) replay pre-computed detections during
/// sampler evaluation. Built once, offline; its construction time is
/// excluded from all reported runtimes, exactly as in the paper.
///
/// This is the one in-memory home of a day's detections: the first read
/// runs the detector once per frame of the whole day and keeps every
/// frame's thresholded detections and per-class counts; later reads never
/// detect again. Reads are thread-safe: the build is mutex-guarded and
/// what it builds is immutable afterwards, so parallel frame scans may
/// race their first reads.
class LabeledSet {
 public:
  /// Does not take ownership; `day` and `detector` must outlive this.
  LabeledSet(const SyntheticVideo* day, const ObjectDetector* detector,
             double score_threshold);

  int64_t num_frames() const { return day_->num_frames(); }
  const SyntheticVideo& day() const { return *day_; }

  /// Per-frame detection count of the class at the score threshold. A bad
  /// class id is refused (std::out_of_range).
  const std::vector<int>& Counts(int class_id) const;

  /// Detections in one frame of the day (thresholded); `frame` must lie
  /// in [0, num_frames()).
  const std::vector<Detection>& DetectionsAt(int64_t frame) const;

  /// Fraction of frames with at least one instance of the class.
  double Occupancy(int class_id) const;

  /// Maximum per-frame count of the class over the day (the range K used
  /// in the epsilon-net sample-size bound).
  int MaxCount(int class_id) const;

 private:
  /// The lazy one-pass build behind every read.
  void Build() const BLAZEIT_EXCLUDES(build_mu_);

  const SyntheticVideo* day_;
  const ObjectDetector* detector_;
  double score_threshold_;
  /// Guards the one-shot lazy build; counts_ and detections_ are never
  /// mutated once built_ flips (released by the store in Build, acquired
  /// by the fast-path load), so post-build readers skip the lock
  /// entirely. They are not GUARDED_BY(build_mu_) for exactly that
  /// reason: post-build reads are deliberately lock-free behind the
  /// built_ acquire/release pair.
  mutable util::Mutex build_mu_;
  /// Indexed by class id, then by frame.
  mutable std::array<std::vector<int>, kNumClasses> counts_;
  /// Dense by frame: slot t holds frame t's thresholded detections.
  mutable std::vector<std::vector<Detection>> detections_;
  mutable std::atomic<bool> built_{false};
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_LABELED_SET_H_
