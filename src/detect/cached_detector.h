#ifndef BLAZEIT_DETECT_CACHED_DETECTOR_H_
#define BLAZEIT_DETECT_CACHED_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "detect/detector.h"
#include "util/mutex.h"

namespace blazeit {

class DetectionStore;

/// Namespace the detections of `video` by `detector` live under in a
/// DetectionStore: (stream-day fingerprint x detector fingerprint) — never
/// the raw seed, so days of different streams can share one store — salted
/// with the code epoch (the fingerprints identify the *inputs*, the epoch
/// the implementation that turned them into detections).
uint64_t DetectionNamespace(const SyntheticVideo& video,
                            const ObjectDetector& detector);

/// Memoizing read-through wrapper around an ObjectDetector. The paper
/// pre-computed all object detections once and replayed them when
/// evaluating samplers (Section 10.2: "we ran the object detection method
/// once and recorded the results"); this wrapper is the equivalent. A
/// frame is served from the in-memory map, then — when a DetectionStore
/// is given — from the store, and only then computed by the inner
/// detector (and written back to the store for the next process; a stored
/// record that failed to decode is repaired in place by that write, see
/// DetectionStore::GetDetections). Simulated cost is still charged per
/// *logical* call by the executors, so caching affects wall-clock only,
/// never the reported runtimes.
///
/// Thread-safe: parallel frame scans (core/selection's predicate sweep)
/// call Detect concurrently. The inner detector is deterministic per
/// (video, frame), so a racing double-compute of the same frame inserts
/// identical content; the map itself is mutex-guarded, with the store
/// read, inner compute and store write outside the lock (the store
/// carries its own locking), and the store counters are atomic.
class CachedDetector : public ObjectDetector {
 public:
  /// Neither pointer is owned; both must outlive this object. `store` may
  /// be null (process-local memoization only). The inner detector's
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
    return inner_->name() + (store_ != nullptr ? "+store" : "+cache");
  }

  uint64_t ParamsFingerprint() const override { return inner_fingerprint_; }

  /// Memory-map misses served by the store, and those the store could not
  /// serve (computed by the inner detector). Both stay 0 without a store.
  int64_t store_hits() const { return store_hits_.load(); }
  int64_t store_misses() const { return store_misses_.load(); }

  size_t cache_size() const BLAZEIT_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return cached_frames_;
  }
  void ClearCache() BLAZEIT_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    cache_.clear();
    cached_frames_ = 0;
  }

 private:
  /// One video's memoized frames, dense by frame (a day's frames are
  /// 0 .. num_frames() - 1): slot f holds frame f's detections once
  /// present[f] is set. A slot costs 25 bytes, where a hash node per frame
  /// cost about 80.
  struct Frames {
    std::vector<std::vector<Detection>> detections;
    std::vector<uint8_t> present;
  };

  const ObjectDetector* inner_;
  /// inner_->ParamsFingerprint(), hashed once rather than on every store
  /// lookup.
  uint64_t inner_fingerprint_;
  DetectionStore* store_;
  mutable util::Mutex mu_;
  /// Keyed by the full stream-day fingerprint (SyntheticVideo::
  /// fingerprint()), never the seed: the catalog gives every stream's
  /// train day the same seed, so a seed key would replay one stream's
  /// detections for another.
  mutable std::unordered_map<uint64_t, Frames> cache_ BLAZEIT_GUARDED_BY(mu_);
  mutable size_t cached_frames_ BLAZEIT_GUARDED_BY(mu_) = 0;
  mutable std::atomic<int64_t> store_hits_{0};
  mutable std::atomic<int64_t> store_misses_{0};
};

}  // namespace blazeit

#endif  // BLAZEIT_DETECT_CACHED_DETECTOR_H_
