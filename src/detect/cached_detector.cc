#include "detect/cached_detector.h"

#include "storage/detection_store.h"
#include "util/artifact_cache.h"
#include "util/logging.h"

namespace blazeit {

namespace {

uint64_t DetectionNamespace(uint64_t video_fingerprint,
                            uint64_t detector_fingerprint) {
  return HashCombine(HashCombine(video_fingerprint, detector_fingerprint),
                     kDerivedArtifactEpoch);
}

}  // namespace

uint64_t DetectionNamespace(const SyntheticVideo& video,
                            const ObjectDetector& detector) {
  return DetectionNamespace(video.fingerprint(), detector.ParamsFingerprint());
}

std::vector<Detection> CachedDetector::Detect(const SyntheticVideo& video,
                                              int64_t frame) const {
  // Frames outside the day are computed (or read) every time, never
  // memoized.
  const bool memoized = frame >= 0 && frame < video.num_frames();
  const size_t slot = static_cast<size_t>(frame);
  if (memoized) {
    util::MutexLock lock(mu_);
    auto it = cache_.find(video.fingerprint());
    if (it != cache_.end() && slot < it->second.present.size() &&
        it->second.present[slot]) {
      return it->second.detections[slot];
    }
  }
  // Compute outside the lock: the inner detector is deterministic, so two
  // racing computations of one frame produce identical vectors, whichever
  // insert lands first wins harmlessly, and the store's first-write-wins
  // absorbs the duplicate Put.
  std::vector<Detection> dets;
  if (store_ == nullptr) {
    dets = inner_->Detect(video, frame);
  } else {
    const uint64_t ns =
        DetectionNamespace(video.fingerprint(), inner_fingerprint_);
    auto stored = store_->GetDetections(ns, frame);
    if (stored.ok()) {
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      dets = std::move(stored).value();
    } else {
      store_misses_.fetch_add(1, std::memory_order_relaxed);
      dets = inner_->Detect(video, frame);
      Status put = store_->PutDetections(ns, frame, dets);
      if (!put.ok()) {
        BLAZEIT_LOG(kWarning) << "detection store write failed: "
                              << put.ToString();
      }
    }
  }
  if (!memoized) return dets;
  util::MutexLock lock(mu_);
  Frames& frames = cache_[video.fingerprint()];
  if (frames.present.empty()) {
    frames.present.resize(static_cast<size_t>(video.num_frames()), 0);
    frames.detections.resize(frames.present.size());
  }
  if (slot >= frames.present.size()) return dets;
  if (!frames.present[slot]) {  // a racing compute may have landed first
    frames.detections[slot] = std::move(dets);
    frames.present[slot] = 1;
    ++cached_frames_;
  }
  return frames.detections[slot];
}

}  // namespace blazeit
