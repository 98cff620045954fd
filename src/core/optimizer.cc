#include "core/optimizer.h"

#include "util/random.h"

namespace blazeit {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSpecializedAggregation:
      return "specialized-aggregation";
    case PlanKind::kAqpAggregation:
      return "aqp-aggregation";
    case PlanKind::kTrackerCountDistinct:
      return "tracker-count-distinct";
    case PlanKind::kImportanceScrubbing:
      return "importance-scrubbing";
    case PlanKind::kScanScrubbing:
      return "scan-scrubbing";
    case PlanKind::kFilteredSelection:
      return "filtered-selection";
    case PlanKind::kBinaryDetection:
      return "binary-detection";
    case PlanKind::kFullScan:
      return "full-scan";
  }
  return "?";
}

uint64_t SharedSweepGroupKey(const AnalyzedQuery& query, size_t query_index) {
  Fingerprint fp;
  fp.Mix(query.table);
  switch (query.kind) {
    case QueryKind::kAggregate:
      // One counting NN per (stream, class); error/confidence only change
      // how the shared sweep is consumed.
      fp.Mix("aggregate-sweep").Mix(query.agg_class);
      return fp.value();
    case QueryKind::kScrubbing:
      // One multi-head NN per ordered class list (head labels are the
      // per-class counts in requirement order; min counts only shape the
      // tail probabilities read off the shared softmax rows).
      fp.Mix("scrubbing-sweep");
      fp.Mix(static_cast<uint64_t>(query.requirements.size()));
      for (const ClassCountRequirement& req : query.requirements) {
        fp.Mix(req.class_id);
      }
      return fp.value();
    case QueryKind::kSelection:
      // One label-filter NN per (stream, class); predicates differ only
      // in calibration, which reuses the shared held-out sweep.
      fp.Mix("selection-sweep").Mix(query.sel_class);
      return fp.value();
    case QueryKind::kBinarySelect:
      fp.Mix("binary-select-sweep").Mix(query.sel_class);
      return fp.value();
    case QueryKind::kCountDistinct:
    case QueryKind::kExhaustive:
      break;
  }
  // No trained model to share: singleton group.
  fp.Mix("solo").Mix(static_cast<uint64_t>(query_index));
  return fp.value();
}

}  // namespace blazeit
