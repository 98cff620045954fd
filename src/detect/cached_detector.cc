#include "detect/cached_detector.h"

#include "storage/detection_store.h"
#include "util/artifact_cache.h"
#include "util/logging.h"

namespace blazeit {

uint64_t DetectionNamespace(const SyntheticVideo& video,
                            const ObjectDetector& detector) {
  return HashCombine(
      HashCombine(video.fingerprint(), detector.ParamsFingerprint()),
      kDerivedArtifactEpoch);
}

std::vector<Detection> CachedDetector::Detect(const SyntheticVideo& video,
                                              int64_t frame) const {
  DetectionCacheKey key{video.fingerprint(), frame};
  {
    util::MutexLock lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Compute outside the lock: the inner detector is deterministic, so two
  // racing computations of one frame produce identical vectors, whichever
  // insert lands first wins harmlessly, and the store's first-write-wins
  // absorbs the duplicate Put.
  std::vector<Detection> dets;
  if (store_ == nullptr) {
    dets = inner_->Detect(video, frame);
  } else {
    const uint64_t ns = DetectionNamespace(video, *inner_);
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
  util::MutexLock lock(mu_);
  return cache_.emplace(key, std::move(dets)).first->second;
}

}  // namespace blazeit
