#ifndef BLAZEIT_CORE_SELECTION_H_
#define BLAZEIT_CORE_SELECTION_H_

#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/udf.h"
#include "detect/detection.h"
#include "frameql/analyzer.h"
#include "nn/specialized_nn.h"
#include "sim/cost_model.h"
#include "util/status.h"
#include "video/image.h"

namespace blazeit {

namespace obs {
class QueryTrace;  // obs/trace.h
}

/// Knobs enabling each inferred filter class; the Figure 11 factor
/// analysis and lesion study toggle these.
struct SelectionOptions {
  bool use_label_filter = true;
  bool use_content_filter = true;
  bool use_temporal_filter = true;
  bool use_spatial_filter = true;
  SpecializedNNConfig nn;
  double calibration_margin = 0.05;
  uint64_t seed = 1;
};

/// One row of the selection output: a detection satisfying the full
/// predicate in one processed frame.
struct SelectionRow {
  int64_t frame = 0;
  Detection detection;
};

/// A maximal run of nearby matching frames, used for event-level recall
/// (our false-negative accounting).
struct SelectionEvent {
  int64_t first_frame = 0;
  int64_t last_frame = 0;
};

struct SelectionResult {
  std::vector<SelectionRow> rows;
  std::vector<SelectionEvent> events;
  CostMeter cost;
  /// Frames on which the full detector ran.
  int64_t frames_detected = 0;
  /// Candidate frames after temporal filtering.
  int64_t candidates = 0;
  /// Which filters the optimizer actually deployed, e.g.
  /// "temporal(stride=7) content(redness>=0.021) label(th=0.83) spatial".
  std::string plan;
};

/// Executes content-based selection (Section 8): infers label, content,
/// temporal, and spatial filters from the query, calibrates the
/// statistical ones for no false negatives on the held-out day, and runs
/// the cascade cheapest-first before calling the detector on surviving
/// frames. All errors are false negatives: every returned row was verified
/// by the full detector.
class SelectionExecutor {
 public:
  /// `stream` and `udfs` must outlive the executor. `sweep_cache`
  /// overrides the stream's artifact cache (the admission queue hands
  /// each query's SweepCacheView in here so a shared-plan group shares NN
  /// and content-filter sweeps); nullptr keeps the stream's persistent
  /// cache.
  /// `trace` (nullable) receives calibrate/train/cascade/verify spans.
  SelectionExecutor(StreamData* stream, const UdfRegistry* udfs,
                    SelectionOptions options = {},
                    ArtifactCache* sweep_cache = nullptr,
                    obs::QueryTrace* trace = nullptr);

  Result<SelectionResult> Run(const AnalyzedQuery& query);

 private:
  /// Whether any thresholded detection in the frame satisfies the object-
  /// level predicate (class, ROI, area, UDFs); fills `rows` if non-null.
  /// `render_scratch` is the caller's reusable render buffer (per-worker
  /// in the parallel held-out sweep, per-Run in the serial verify stage);
  /// rendered lazily, at most once per frame, always fully overwritten.
  bool FrameMatches(const LabeledSet& labels, int64_t frame,
                    const AnalyzedQuery& query,
                    std::vector<SelectionRow>* rows,
                    Image* render_scratch) const;

  StreamData* stream_;
  const UdfRegistry* udfs_;
  ArtifactCache* cache_;
  SelectionOptions options_;
  obs::QueryTrace* trace_;
};

/// The label filter's score (Section 8, the NoScope-style filter class):
/// the NN's batched confidence that its first head's class is present,
/// P(count >= 1), widened to double for calibration and thresholding.
/// Frames the NN is confident are irrelevant score low and are discarded
/// before detection.
std::vector<double> PresenceScores(const SpecializedNN& nn,
                                   const SyntheticVideo& video,
                                   const std::vector<int64_t>& frames);

/// Test-day frames whose *scene ground truth* satisfies the query
/// predicate, merged into events and filtered by the query's persistence
/// requirement. This is the reference for false-negative-rate accounting
/// in benchmarks (the paper reports FNR for these queries).
std::vector<SelectionEvent> GroundTruthSelectionEvents(
    const SyntheticVideo& video, const AnalyzedQuery& query,
    const UdfRegistry& udfs);

}  // namespace blazeit

#endif  // BLAZEIT_CORE_SELECTION_H_
