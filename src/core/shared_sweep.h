#ifndef BLAZEIT_CORE_SHARED_SWEEP_H_
#define BLAZEIT_CORE_SHARED_SWEEP_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "util/artifact_cache.h"
#include "util/mutex.h"

namespace blazeit {

/// The in-memory artifact tier that makes multi-query batching pay: one
/// SharedSweepCache is shared by every query a serve::AdmissionQueue
/// executes (across all of its windows), so the first query of a
/// shared-plan group trains the specialized NN and runs the per-frame
/// sweeps, and the rest of the group reads the identical floats back
/// instead of recomputing them. Keys are the same content fingerprints
/// the persistent ArtifactCache uses, so a hit is bit-identical to
/// recomputation and query outputs/simulated costs never depend on cache
/// state.
///
/// Thread-safe (independent groups run concurrently on the exec pool);
/// first write wins, which is benign for the same reason the detection
/// store's rule is: values are deterministic per key, so a racing
/// duplicate insert carries identical bytes.
///
/// Unbounded by design: the cache is scoped to one admission queue and
/// holds full-day sweep rows for every (stream, NN, class) it has served
/// — a few MB each. A long-lived queue over a varied query mix should be
/// recycled periodically; the persistent store underneath loses nothing.
class SharedSweepCache {
 public:
  SharedSweepCache() = default;
  SharedSweepCache(const SharedSweepCache&) = delete;
  SharedSweepCache& operator=(const SharedSweepCache&) = delete;

  /// Resident record counts (diagnostics; storecli-style reporting).
  int64_t frame_float_records() const BLAZEIT_EXCLUDES(mu_);
  int64_t blob_records() const BLAZEIT_EXCLUDES(mu_);

 private:
  friend class SweepCacheView;

  using Key = std::pair<uint64_t, int64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Splittable mix of (namespace, frame); collisions only cost a probe.
      uint64_t h = k.first ^ (static_cast<uint64_t>(k.second) *
                              0x9E3779B97F4A7C15ull);
      h ^= h >> 33;
      return static_cast<size_t>(h);
    }
  };

  bool GetFloats(uint64_t ns, int64_t frame, std::vector<float>* out) const
      BLAZEIT_EXCLUDES(mu_);
  void PutFloats(uint64_t ns, int64_t frame, const std::vector<float>& v)
      BLAZEIT_EXCLUDES(mu_);
  bool GetDoubles(uint64_t ns, int64_t frame, std::vector<double>* out) const
      BLAZEIT_EXCLUDES(mu_);
  void PutDoubles(uint64_t ns, int64_t frame, const std::vector<double>& v)
      BLAZEIT_EXCLUDES(mu_);
  bool GetBlob(uint64_t ns, std::vector<float>* out) const
      BLAZEIT_EXCLUDES(mu_);
  void PutBlob(uint64_t ns, const std::vector<float>& v) BLAZEIT_EXCLUDES(mu_);

  mutable util::Mutex mu_;
  std::unordered_map<Key, std::vector<float>, KeyHash> floats_
      BLAZEIT_GUARDED_BY(mu_);
  std::unordered_map<Key, std::vector<double>, KeyHash> doubles_
      BLAZEIT_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::vector<float>> blobs_
      BLAZEIT_GUARDED_BY(mu_);
};

/// One query's artifact cache: reads the shared tier first, then the
/// stream's persistent cache, and promotes persistent hits into the shared
/// tier so the rest of the window stays in memory. Writes go to both
/// tiers, so batching never loses persistence. Either tier may be null:
/// the admission queue passes its SharedSweepCache, a standalone query
/// passes none, and with no persistent tier either (a catalog without a
/// detection store) every Get is a miss and every Put a no-op — exactly
/// cache-less execution.
///
/// The view counts the query's traffic into one obs::CacheStats — per-kind
/// hits and misses over both tiers, and how much of its NN work the
/// *shared* tier absorbed — which becomes the query's
/// ExecutionReport::cache and the serve::BatchQueryStats sharing counts. A
/// hit this view takes directly on the persistent tier is not counted as
/// shared (serial execution would have been served by it too); it is
/// promoted, though, so a *later* query's consumption of the same row
/// counts as shared. That keeps the sharing counts independent of store
/// temperature — a follower's dedup reads the same whether the leader
/// computed the sweep or replayed it — matching the simulated cost model,
/// which charges NN work regardless of cache state. They therefore
/// measure "charged NN work served by the batch tier", not physical FLOPs
/// avoided; on a warm store the physical savings are smaller (wall-clock
/// shows those). Counting only observes: every hit is bit-identical to
/// recomputation, so outputs and simulated costs never depend on it.
///
/// Not thread-safe across queries: each executed query gets its own view
/// (the underlying caches carry their own locking).
class SweepCacheView final : public ArtifactCache {
 public:
  /// Either pointer may be null; neither is owned.
  SweepCacheView(SharedSweepCache* shared, ArtifactCache* underlying)
      : shared_(shared), underlying_(underlying) {}

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

  const obs::CacheStats& stats() const { return stats_; }

 private:
  SharedSweepCache* shared_;
  ArtifactCache* underlying_;
  obs::CacheStats stats_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_SHARED_SWEEP_H_
