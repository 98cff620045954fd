#ifndef BLAZEIT_DETECT_CACHED_DETECTOR_H_
#define BLAZEIT_DETECT_CACHED_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/detector.h"

namespace blazeit {

class DetectionStore;

/// Namespace the detections of `video` by `detector` live under in a
/// DetectionStore: (stream-day fingerprint x detector fingerprint) — never
/// the raw seed, so days of different streams can share one store — salted
/// with the code epoch (the fingerprints identify the *inputs*, the epoch
/// the implementation that turned them into detections).
uint64_t DetectionNamespace(const SyntheticVideo& video,
                            const ObjectDetector& detector);

/// Read-through wrapper that backs an ObjectDetector with a
/// DetectionStore. The paper pre-computed all object detections once and
/// replayed them when evaluating samplers (Section 10.2: "we ran the
/// object detection method once and recorded the results"); the store is
/// that record across processes. A frame is read from the store, and only
/// on a miss computed by the inner detector and written back for the next
/// process (a stored record that failed to decode is repaired in place by
/// that write, see DetectionStore::GetDetections). Within a process a
/// day's detections live in its LabeledSet (core/labeled_set.h), which
/// calls Detect once per frame; this wrapper keeps no copy. Simulated cost
/// is still charged per *logical* call by the executors, so the store
/// affects wall-clock only, never the reported runtimes.
///
/// Thread-safe: the store carries its own locking and the counters are
/// atomic.
class CachedDetector : public ObjectDetector {
 public:
  /// Neither pointer is owned; both must outlive this object. `store` may
  /// be null (every call then computes). The inner detector's
  /// ParamsFingerprint is read once, here, so its parameters must not
  /// change afterwards.
  explicit CachedDetector(const ObjectDetector* inner,
                          DetectionStore* store = nullptr)
      : inner_(inner),
        inner_fingerprint_(inner->ParamsFingerprint()),
        store_(store) {}

  std::vector<Detection> Detect(const SyntheticVideo& video,
                                int64_t frame) const override;

  std::string name() const override {
    return inner_->name() + (store_ != nullptr ? "+store" : "");
  }

  uint64_t ParamsFingerprint() const override { return inner_fingerprint_; }

  /// Calls the store served, and those it could not serve (computed by
  /// the inner detector). Both stay 0 without a store.
  int64_t store_hits() const { return store_hits_.load(); }
  int64_t store_misses() const { return store_misses_.load(); }

 private:
  const ObjectDetector* inner_;
  /// inner_->ParamsFingerprint(), hashed once rather than on every store
  /// lookup.
  uint64_t inner_fingerprint_;
  DetectionStore* store_;
  mutable std::atomic<int64_t> store_hits_{0};
  mutable std::atomic<int64_t> store_misses_{0};
};

}  // namespace blazeit

#endif  // BLAZEIT_DETECT_CACHED_DETECTOR_H_
