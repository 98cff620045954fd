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
  if (store_ == nullptr) return inner_->Detect(video, frame);
  const uint64_t ns =
      DetectionNamespace(video.fingerprint(), inner_fingerprint_);
  auto stored = store_->GetDetections(ns, frame);
  if (stored.ok()) {
    store_hits_.fetch_add(1, std::memory_order_relaxed);
    return std::move(stored).value();
  }
  store_misses_.fetch_add(1, std::memory_order_relaxed);
  // Two racing computations of one frame produce identical vectors (the
  // inner detector is deterministic), and the store's first-write-wins
  // absorbs the duplicate Put.
  std::vector<Detection> dets = inner_->Detect(video, frame);
  Status put = store_->PutDetections(ns, frame, dets);
  if (!put.ok()) {
    BLAZEIT_LOG(kWarning) << "detection store write failed: "
                          << put.ToString();
  }
  return dets;
}

}  // namespace blazeit
