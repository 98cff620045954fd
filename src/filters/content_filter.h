#ifndef BLAZEIT_FILTERS_CONTENT_FILTER_H_
#define BLAZEIT_FILTERS_CONTENT_FILTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/artifact_cache.h"
#include "video/image.h"
#include "video/synthetic_video.h"

namespace blazeit {

/// A continuous image statistic (e.g. redness); the content filter lifts
/// the per-mask UDF of the query to the whole frame (Section 8.1: apply
/// the UDF over the entire frame and filter frames that cannot satisfy it).
using ImageUdf = std::function<double(const Image&)>;

/// Content-based filtering: scores each frame by a cheap visual statistic
/// inferred from the query's UDF predicate, e.g. the frame-level redness
/// when searching for red buses. Only meaningful for UDFs returning
/// continuous values (the paper's restriction); threshold calibration on
/// the held-out set (filters/calibration.h) discovers whether the lifted
/// UDF is actually selective.
///
/// ScoreBatch shards its sweep across the exec pool, so the UDF must be a
/// pure function of the image (no shared mutable state). Every built-in
/// is; a stateful ad-hoc closure would already be unfit for a filter,
/// whose score must be a stable function of the frame.
class ContentFilter {
 public:
  /// Side of the square raster the UDF is evaluated on.
  static constexpr int kRaster = 32;

  /// `cache` (nullable, not owned) persists scores under a key derived
  /// from `udf_fingerprint`, the UDF's content identity; 0 marks an ad-hoc
  /// closure with none and disables persistence. Scores are doubles and
  /// are cached bit-exactly, so calibrated thresholds behave identically
  /// warm or cold.
  explicit ContentFilter(ImageUdf udf, ArtifactCache* cache = nullptr,
                         uint64_t udf_fingerprint = 0);

  /// The UDF over each whole frame, rendered at kRaster x kRaster. Cache
  /// hits are read first with one run read; the misses render and score
  /// in a sharded parallel sweep with per-worker scratch (disjoint output
  /// slots, same per-frame math, so bits do not depend on thread count)
  /// and are written back afterwards, in frame order.
  std::vector<double> ScoreBatch(const SyntheticVideo& video,
                                 const std::vector<int64_t>& frames) const;

 private:
  ImageUdf udf_;
  ArtifactCache* cache_;
  /// Fingerprint of everything besides (video, frame) that determines a
  /// score; mixed with the video fingerprint into the cache namespace.
  uint64_t identity_ = 0;
};

}  // namespace blazeit

#endif  // BLAZEIT_FILTERS_CONTENT_FILTER_H_
