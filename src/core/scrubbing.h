#ifndef BLAZEIT_CORE_SCRUBBING_H_
#define BLAZEIT_CORE_SCRUBBING_H_

#include <string>
#include <vector>

#include "core/catalog.h"
#include "frameql/analyzer.h"
#include "nn/specialized_nn.h"
#include "obs/report.h"
#include "sim/cost_model.h"
#include "storage/segment_sketch.h"
#include "util/status.h"

namespace blazeit {

struct ScrubOptions {
  SpecializedNNConfig nn;
  uint64_t seed = 1;
};

struct ScrubResult {
  /// Frames satisfying the predicate, in discovery (confidence) order —
  /// the paper notes results are not returned in temporal order.
  std::vector<int64_t> frames;
  /// Full simulated cost including NN training and inference.
  CostMeter cost;
  /// Detection-only seconds: the cost if the specialized NN's scores were
  /// pre-indexed ("BlazeIt (indexed)" in Figure 6).
  double indexed_seconds = 0.0;
  /// Sample complexity: object-detection calls consumed.
  int64_t detection_calls = 0;
  /// True when LIMIT frames were found. Distinct from scan_exhausted: a
  /// query with fewer matches than LIMIT ends with limit_satisfied ==
  /// false and scan_exhausted == true (the two used to be conflated in a
  /// single `found_all` flag).
  bool limit_satisfied = false;
  /// True when every candidate frame of the window was examined — the
  /// honest "there is nothing more to find" signal.
  bool scan_exhausted = false;
  /// True when the training day had no instances of the query and the
  /// executor fell back to a sequential scan (Section 7.1).
  bool fell_back_to_scan = false;
  /// Why Run took its path: the matching training frames, or their
  /// absence. Empty after Scan.
  std::string plan;
  /// Sketch-index activity, for the query's ExecutionReport.
  obs::SketchStats sketch;
};

/// Executes cardinality-limited scrubbing queries (Section 7): trains one
/// specialized NN with a count head per queried class, scores every unseen
/// frame by the summed probability of meeting the per-class minimum
/// counts, and runs the full detector down the confidence ranking until
/// LIMIT verified frames (GAP apart) are found. Only true positives are
/// ever returned because every candidate is verified by the detector.
class ScrubbingExecutor {
 public:
  /// `stream` must outlive the executor. `sweep_cache` overrides the
  /// stream's artifact cache (the admission queue hands each query's
  /// SweepCacheView in here so a shared-plan group shares NN sweeps);
  /// nullptr keeps the stream's persistent cache. `trace` (nullable)
  /// receives train/sweep/verify stage spans. `use_store_index` consults
  /// the store's per-segment sketches (see SketchCandidates): the NN
  /// scores, and the detector verifies, only sketch-candidate frames, and
  /// the scan skips refuted segments too. Returned frames are
  /// bit-identical to the unindexed run; only the charged NN and detector
  /// calls drop.
  ScrubbingExecutor(StreamData* stream, ScrubOptions options = {},
                    ArtifactCache* sweep_cache = nullptr,
                    obs::QueryTrace* trace = nullptr,
                    bool use_store_index = false);

  /// Finds LIMIT matching frames among the test-day frames in `window`
  /// (default: the whole day).
  Result<ScrubResult> Run(const std::vector<ClassCountRequirement>& reqs,
                          int64_t limit, int64_t gap,
                          FrameWindow window = FrameWindow{});

  /// The NN-free sequential scan: walks the sketch-candidate frames of
  /// `window` in ascending order, skips frames within `gap` of an accepted
  /// one, charges one detector call per examined frame, and stops at
  /// `limit` matches. Run falls back to it when the training day holds no
  /// instance of the query (Section 7.1); the serving layer's shed tier
  /// runs it directly as its cheap baseline.
  Result<ScrubResult> Scan(const std::vector<ClassCountRequirement>& reqs,
                           int64_t limit, int64_t gap,
                           FrameWindow window = FrameWindow{});

 private:
  /// Scan's walk over already-consulted candidate ranges (ascending).
  ScrubResult ScanRanges(const std::vector<ClassCountRequirement>& reqs,
                         int64_t limit, int64_t gap,
                         const std::vector<SketchIndex::FrameRange>& ranges);

  StreamData* stream_;
  ArtifactCache* cache_;
  ScrubOptions options_;
  obs::QueryTrace* trace_;
  bool use_store_index_;
};

/// True if the frame's per-class counts satisfy every requirement.
bool SatisfiesRequirements(const StreamData& stream, int64_t frame,
                           const std::vector<ClassCountRequirement>& reqs);

/// The one sketch consultation every scanning plan shares: when
/// `use_store_index` is on and a current sketch index exists for the
/// stream's store, the subranges of `window` that `probe` cannot refute;
/// otherwise the whole window (nothing for an empty one). The probe is
/// evaluated at the stream's detection threshold. `stats` (nullable)
/// receives the consultation outcome for the query's ExecutionReport.
std::vector<SketchIndex::FrameRange> SketchCandidates(
    const StreamData& stream, bool use_store_index, FrameWindow window,
    SketchProbe probe, obs::SketchStats* stats);

/// Number of test-day frames satisfying the requirements, and the number
/// of distinct events (maximal runs of consecutive satisfying frames) —
/// the "Instances" column of Table 6.
struct RequirementStats {
  int64_t matching_frames = 0;
  int64_t events = 0;
};
RequirementStats CountRequirementInstances(
    const StreamData& stream, const std::vector<ClassCountRequirement>& reqs);

}  // namespace blazeit

#endif  // BLAZEIT_CORE_SCRUBBING_H_
