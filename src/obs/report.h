#ifndef BLAZEIT_OBS_REPORT_H_
#define BLAZEIT_OBS_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.h"
#include "sim/cost_model.h"

namespace blazeit {
namespace obs {

/// Per-kind hit/miss counts of one query's artifact-cache traffic, plus
/// how much of it the shared-sweep tier served (zero outside an admission
/// window). Counted by the query's SweepCacheView.
struct CacheStats {
  int64_t frame_float_hits = 0;
  int64_t frame_float_misses = 0;
  int64_t frame_double_hits = 0;
  int64_t frame_double_misses = 0;
  int64_t blob_hits = 0;
  int64_t blob_misses = 0;
  /// Per-frame NN output rows read from the shared tier (specialized-NN
  /// inference another query of the window already paid for).
  int64_t shared_nn_frames = 0;
  /// Per-frame filter scores served from the shared tier.
  int64_t shared_filter_frames = 0;
  /// Trained weight blobs served from the shared tier (0 or 1 per query:
  /// each executor trains at most one specialized NN per run).
  int64_t shared_models = 0;

  int64_t hits() const {
    return frame_float_hits + frame_double_hits + blob_hits;
  }
  int64_t misses() const {
    return frame_float_misses + frame_double_misses + blob_misses;
  }
};

/// Sketch-index activity of one query (full scans, count-distinct, and
/// scrubbing consult the index; other plans leave this default).
struct SketchStats {
  /// The plan asked the sketch index for candidates (use_store_index was
  /// on and the plan supports pruning).
  bool consulted = false;
  /// A current index answered — candidate_frames is the pruned frame
  /// count. False with consulted == true means the stale/absent fallback
  /// ran (the whole window was walked).
  bool pruned = false;
  int64_t window_frames = 0;
  int64_t candidate_frames = 0;
};

/// EXPLAIN-style artifact of one executed query: the chosen plan, the
/// simulated-cost breakdown (copied from the query's CostMeter, so totals
/// reconcile with QueryOutput::cost exactly), cache and sketch activity,
/// and the lifecycle trace. Attached to QueryOutput when
/// EngineOptions::collect_reports is on.
struct ExecutionReport {
  std::string query;
  std::string plan;
  std::string plan_description;
  /// Shared-plan group index within the batch; -1 for standalone runs.
  int64_t batch_group = -1;
  /// Accuracy tier the query actually ran at. "full" is the normal
  /// engine path (the optimizer's plan, paper guarantees intact); the
  /// serving layer sets "degraded-sampling" / "degraded-scan" when load
  /// shedding downgraded the query to a cheap baseline, so the downgrade
  /// is visible to clients in the report.
  std::string accuracy_tier = "full";

  /// Simulated-cost breakdown: a copy of the QueryOutput's CostMeter.
  CostMeter cost;
  CacheStats cache;
  SketchStats sketch;

  /// Present when tracing ran (always, under collect_reports).
  std::shared_ptr<QueryTrace> trace;

  /// Multi-line EXPLAIN text: plan, cost table, cache/sketch lines, and
  /// the trace tree.
  std::string ToText() const;
  /// One JSON object; includes the Chrome trace under "trace" when
  /// present, so the report is self-contained.
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace blazeit

#endif  // BLAZEIT_OBS_REPORT_H_
