#ifndef BLAZEIT_CORE_SHARED_SWEEP_H_
#define BLAZEIT_CORE_SHARED_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <unordered_map>
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
/// Each namespace keeps its float rows and its double rows dense by frame:
/// one array of frame-indexed rows of the namespace's width (fixed by its
/// first row) and a presence map. A sweep reads its whole run under one
/// lock with a copy per row instead of a hash probe per frame.
///
/// Thread-safe (independent groups run concurrently on the exec pool);
/// first write wins, which is benign for the same reason the detection
/// store's rule is: values are deterministic per key, so a racing
/// duplicate insert carries identical bytes.
///
/// Unbounded by design: the cache is scoped to one admission queue and
/// holds full-day sweep rows for every (stream, NN, class) it has served.
/// A namespace costs (highest frame + 1) x (width x value size + 1)
/// bytes, up to twice that allocated while it grows. Measured on the
/// serve-mix benchmark (six streams, 1500/1500/4500-frame days): 89,488
/// rows in 30 namespaces took 1.7 MB (2.9 MB allocated), beside 2.4 MB
/// of trained-weight blobs. A long-lived queue over a varied query mix
/// should be recycled periodically; the persistent store underneath
/// loses nothing.
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

  /// One namespace's rows of one value type: frame f's row is
  /// values[f * width, (f + 1) * width), valid once present[f] is set.
  template <typename T>
  struct Rows {
    size_t width = 0;
    std::vector<T> values;
    std::vector<uint8_t> present;
    int64_t count = 0;
  };
  template <typename T>
  using RowMap = std::unordered_map<uint64_t, Rows<T>>;

  /// Copies the rows of frames[0, count) into `out` (count x width) and
  /// appends to `miss` the positions of the frames with no row of that
  /// width; one lock for the run.
  template <typename T>
  void ReadRun(uint64_t ns, const int64_t* frames, size_t count, size_t width,
               T* out, std::vector<size_t>* miss) const BLAZEIT_EXCLUDES(mu_);
  /// Stores `count` rows of `width` values, one per frame; one lock for the
  /// run. First write wins. The namespace keeps rows of its first row's
  /// width only, and of frames >= 0 only; other rows are not kept (the
  /// persistent tier still holds them).
  template <typename T>
  void WriteRun(uint64_t ns, const int64_t* frames, size_t count,
                size_t width, const T* rows) BLAZEIT_EXCLUDES(mu_);
  /// Width of the namespace's rows; 0 while it holds none.
  template <typename T>
  size_t RowWidth(uint64_t ns) const BLAZEIT_EXCLUDES(mu_);

  bool GetBlob(uint64_t ns, std::vector<float>* out) const
      BLAZEIT_EXCLUDES(mu_);
  void PutBlob(uint64_t ns, const std::vector<float>& v) BLAZEIT_EXCLUDES(mu_);

  mutable util::Mutex mu_;
  std::tuple<RowMap<float>, RowMap<double>> rows_ BLAZEIT_GUARDED_BY(mu_);
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
/// Rows are read in runs: a sweep's run read takes the shared tier's lock
/// once, adds its shared hits to the process counter once, reads the
/// shared tier's misses from the persistent tier as one run and promotes
/// the hits as one run. For a sweep's distinct frames the stats count
/// exactly what a Get per frame would. A per-frame Get is a run of one
/// frame at the width of the namespace's resident rows; while the shared
/// tier holds none of the namespace, the persistent row comes back whole
/// and is promoted.
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
  void GetFrameFloatsRun(uint64_t ns, const std::vector<int64_t>& frames,
                         size_t width, float* out,
                         std::vector<size_t>* miss) override;
  void GetFrameDoublesRun(uint64_t ns, const std::vector<int64_t>& frames,
                          size_t width, double* out,
                          std::vector<size_t>* miss) override;

  const obs::CacheStats& stats() const { return stats_; }

 private:
  /// The view's read path, for both row types.
  template <typename T>
  void ReadRun(uint64_t ns, const int64_t* frames, size_t count, size_t width,
               T* out, std::vector<size_t>* miss);
  template <typename T>
  bool GetRow(uint64_t ns, int64_t frame, std::vector<T>* out);
  template <typename T>
  void PutRow(uint64_t ns, int64_t frame, const std::vector<T>& values);
  /// Adds one read's outcome to the stats: `shared` of its `hits` came
  /// from the shared tier.
  template <typename T>
  void Count(int64_t shared, int64_t hits, int64_t misses);
  /// Copies persistent-tier hits into the shared tier.
  template <typename T>
  void Promote(uint64_t ns, const int64_t* frames, size_t count, size_t width,
               const T* rows);

  SharedSweepCache* shared_;
  ArtifactCache* underlying_;
  obs::CacheStats stats_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_SHARED_SWEEP_H_
