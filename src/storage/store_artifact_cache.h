#ifndef BLAZEIT_STORAGE_STORE_ARTIFACT_CACHE_H_
#define BLAZEIT_STORAGE_STORE_ARTIFACT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "storage/detection_store.h"
#include "util/artifact_cache.h"

namespace blazeit {

/// ArtifactCache backed by a DetectionStore: per-frame NN outputs, filter
/// scores, and trained-weight blobs become float/double-payload records in
/// the same versioned, CRC-checked segment format as detections. Blobs use
/// a sentinel frame id (no real frame is negative).
///
/// Thread-safe for concurrent Get/Put: the store carries its own locks and
/// the hit/miss counters are atomic.
///
/// Self-healing through the store: a record that exists but fails to
/// decode is a miss here, and the caller's Put of the recomputed value
/// repairs it in place (see the typed Gets of DetectionStore).
class StoreArtifactCache : public ArtifactCache {
 public:
  /// Not owned; must outlive this object.
  explicit StoreArtifactCache(DetectionStore* store) : store_(store) {}

  bool GetFrameFloats(uint64_t ns, int64_t frame,
                      std::vector<float>* out) override;
  void PutFrameFloats(uint64_t ns, int64_t frame,
                      const std::vector<float>& values) override;
  bool GetFrameDoubles(uint64_t ns, int64_t frame,
                       std::vector<double>* out) override;
  void PutFrameDoubles(uint64_t ns, int64_t frame,
                       const std::vector<double>& values) override;
  bool GetBlob(uint64_t ns, std::vector<float>* out) override;
  void PutBlob(uint64_t ns, const std::vector<float>& values) override;

  int64_t hits() const { return hits_.load(); }
  int64_t misses() const { return misses_.load(); }

 private:
  static constexpr int64_t kBlobFrame = -1;

  /// Counts one Get and, on a hit, moves the value into `out`.
  template <typename T>
  bool CountGet(Result<std::vector<T>> values, std::vector<T>* out);

  DetectionStore* store_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace blazeit

#endif  // BLAZEIT_STORAGE_STORE_ARTIFACT_CACHE_H_
