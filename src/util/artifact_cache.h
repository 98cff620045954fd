#ifndef BLAZEIT_UTIL_ARTIFACT_CACHE_H_
#define BLAZEIT_UTIL_ARTIFACT_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace blazeit {

/// Version epoch of the *code* that derives cached artifacts. Config
/// fingerprints capture what the inputs were, but not which implementation
/// of the detector noise model, renderer, FrameFeatures, or NN forward
/// math produced the bytes — persistent stores mix this epoch into every
/// namespace, so bumping it invalidates all derived artifacts at once.
/// Bump whenever any of that math changes output bits.
///
/// Epoch history:
///   2 — PR 3: renderer contract fix (lighting factor clamped to >= 0,
///       fill-site color clamp to [0,1]) and the two-pass Resize box
///       filter (Resize has since been removed). The vectorized raster/NN
///       kernels themselves are bit-identical to the scalar paths and did
///       not require a bump.
inline constexpr uint64_t kDerivedArtifactEpoch = 2;

/// Cache interface for expensive derived per-frame artifacts: trained NN
/// weights, per-frame NN softmax outputs, and per-frame filter scores. The
/// interface lives in util/ so nn/ and filters/ stay independent of the
/// storage backend; the DetectionStore-backed implementation is
/// storage/store_artifact_cache.h, and a null cache (the default
/// everywhere) disables persistence entirely.
///
/// Keys are caller-computed fingerprints covering everything the cached
/// value depends on (training day, labels, config, evaluation day, filter
/// identity); a key therefore never needs invalidation — a changed input
/// is a different key. Values are bit-exact: a cache hit must reproduce
/// the identical floats/doubles the computation would have produced, so
/// query outputs and simulated costs are unchanged warm or cold.
class ArtifactCache {
 public:
  virtual ~ArtifactCache() = default;

  /// Per-frame float records under namespace `ns`. Returns false on miss.
  virtual bool GetFrameFloats(uint64_t ns, int64_t frame,
                              std::vector<float>* out) = 0;
  virtual void PutFrameFloats(uint64_t ns, int64_t frame,
                              const std::vector<float>& values) = 0;

  /// Per-frame double records (filter scores are doubles; storing them as
  /// floats would round and could flip threshold comparisons).
  virtual bool GetFrameDoubles(uint64_t ns, int64_t frame,
                               std::vector<double>* out) = 0;
  virtual void PutFrameDoubles(uint64_t ns, int64_t frame,
                               const std::vector<double>& values) = 0;

  /// One blob per namespace (trained weights). Returns false on miss.
  virtual bool GetBlob(uint64_t ns, std::vector<float>* out) = 0;
  virtual void PutBlob(uint64_t ns, const std::vector<float>& values) = 0;

  /// Run reads: the rows of `frames` under `ns`, each `width` values wide,
  /// into `out` (frames.size() x width, row-major). The position in
  /// `frames` of each frame with no row of that width is appended to
  /// `miss`, and its slot of `out` is left as it was. The defaults loop the
  /// per-frame Get, so an implementation counts and times a run exactly as
  /// it would the same Gets one by one. SweepCacheView serves a run under
  /// one lock; a store tier can override it to read a run of adjacent
  /// records with one positional read. Sweeps (NN outputs, filter scores)
  /// read their frames with one call.
  virtual void GetFrameFloatsRun(uint64_t ns,
                                 const std::vector<int64_t>& frames,
                                 size_t width, float* out,
                                 std::vector<size_t>* miss) {
    GetRunByFrame(&ArtifactCache::GetFrameFloats, ns, frames, width, out,
                  miss);
  }
  virtual void GetFrameDoublesRun(uint64_t ns,
                                  const std::vector<int64_t>& frames,
                                  size_t width, double* out,
                                  std::vector<size_t>* miss) {
    GetRunByFrame(&ArtifactCache::GetFrameDoubles, ns, frames, width, out,
                  miss);
  }

 private:
  template <typename T>
  void GetRunByFrame(bool (ArtifactCache::*get)(uint64_t, int64_t,
                                                std::vector<T>*),
                     uint64_t ns, const std::vector<int64_t>& frames,
                     size_t width, T* out, std::vector<size_t>* miss) {
    std::vector<T> row;
    for (size_t i = 0; i < frames.size(); ++i) {
      if ((this->*get)(ns, frames[i], &row) && row.size() == width) {
        std::copy(row.begin(), row.end(), out + i * width);
      } else {
        miss->push_back(i);
      }
    }
  }
};

}  // namespace blazeit

#endif  // BLAZEIT_UTIL_ARTIFACT_CACHE_H_
