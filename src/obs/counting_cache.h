#ifndef BLAZEIT_OBS_COUNTING_CACHE_H_
#define BLAZEIT_OBS_COUNTING_CACHE_H_

#include <cstdint>
#include <vector>

#include "util/artifact_cache.h"

namespace blazeit {
namespace obs {

/// Per-kind hit/miss counts of one query's artifact-cache traffic, plus
/// the shared-sweep sharing counters (filled by serve::AdmissionQueue,
/// zero for standalone execution).
struct CacheStats {
  int64_t frame_float_hits = 0;
  int64_t frame_float_misses = 0;
  int64_t frame_double_hits = 0;
  int64_t frame_double_misses = 0;
  int64_t blob_hits = 0;
  int64_t blob_misses = 0;
  int64_t shared_nn_frames = 0;
  int64_t shared_filter_frames = 0;
  int64_t shared_models = 0;

  int64_t hits() const {
    return frame_float_hits + frame_double_hits + blob_hits;
  }
  int64_t misses() const {
    return frame_float_misses + frame_double_misses + blob_misses;
  }
};

/// ArtifactCache wrapper counting one query's per-kind hits and misses
/// for its ExecutionReport. A null underlying cache is allowed: every Get
/// is then a counted miss and every Put a no-op, which matches cache-less
/// execution exactly (the cache-hit ≡ recompute contract means wrapping
/// can never change query outputs or simulated costs — only observe them).
/// Not thread-safe beyond the counters being plain (one view serves one
/// query on one thread, the same ownership rule as SweepCacheView).
class CountingCacheView final : public ArtifactCache {
 public:
  explicit CountingCacheView(ArtifactCache* underlying)
      : underlying_(underlying) {}

  bool GetFrameFloats(uint64_t ns, int64_t frame,
                      std::vector<float>* out) override {
    const bool hit =
        underlying_ != nullptr && underlying_->GetFrameFloats(ns, frame, out);
    (hit ? stats_.frame_float_hits : stats_.frame_float_misses) += 1;
    return hit;
  }
  void PutFrameFloats(uint64_t ns, int64_t frame,
                      const std::vector<float>& values) override {
    if (underlying_ != nullptr) underlying_->PutFrameFloats(ns, frame, values);
  }

  bool GetFrameDoubles(uint64_t ns, int64_t frame,
                       std::vector<double>* out) override {
    const bool hit = underlying_ != nullptr &&
                     underlying_->GetFrameDoubles(ns, frame, out);
    (hit ? stats_.frame_double_hits : stats_.frame_double_misses) += 1;
    return hit;
  }
  void PutFrameDoubles(uint64_t ns, int64_t frame,
                       const std::vector<double>& values) override {
    if (underlying_ != nullptr) {
      underlying_->PutFrameDoubles(ns, frame, values);
    }
  }

  bool GetBlob(uint64_t ns, std::vector<float>* out) override {
    const bool hit = underlying_ != nullptr && underlying_->GetBlob(ns, out);
    (hit ? stats_.blob_hits : stats_.blob_misses) += 1;
    return hit;
  }
  void PutBlob(uint64_t ns, const std::vector<float>& values) override {
    if (underlying_ != nullptr) underlying_->PutBlob(ns, values);
  }

  const CacheStats& stats() const { return stats_; }

 private:
  ArtifactCache* underlying_;
  CacheStats stats_;
};

}  // namespace obs
}  // namespace blazeit

#endif  // BLAZEIT_OBS_COUNTING_CACHE_H_
