#include "frameql/analyzer.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace blazeit {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kAggregate:
      return "aggregate";
    case QueryKind::kCountDistinct:
      return "count-distinct";
    case QueryKind::kScrubbing:
      return "scrubbing";
    case QueryKind::kSelection:
      return "selection";
    case QueryKind::kBinarySelect:
      return "binary-select";
    case QueryKind::kExhaustive:
      return "exhaustive";
  }
  return "?";
}

namespace {

/// Converts a spatial threshold to normalized coordinates: values above 1
/// are pixel coordinates in the stream's nominal resolution.
double NormalizeSpatial(double value, const std::string& field,
                        const StreamConfig& stream) {
  if (value <= 1.0) return value;
  if (field == "xmin" || field == "xmax") return value / stream.width;
  return value / stream.height;
}

Status FoldSpatialIntoRoi(const Predicate& pred, const StreamConfig& stream,
                          Rect* roi) {
  double v = NormalizeSpatial(pred.value, pred.name, stream);
  // Only constraints that shrink the ROI from one side are supported,
  // matching the paper's example (xmax(mask) < 720).
  if (pred.name == "xmax" && (pred.op == CmpOp::kLt || pred.op == CmpOp::kLe)) {
    roi->xmax = std::min(roi->xmax, v);
  } else if (pred.name == "xmin" &&
             (pred.op == CmpOp::kGt || pred.op == CmpOp::kGe)) {
    roi->xmin = std::max(roi->xmin, v);
  } else if (pred.name == "ymax" &&
             (pred.op == CmpOp::kLt || pred.op == CmpOp::kLe)) {
    roi->ymax = std::min(roi->ymax, v);
  } else if (pred.name == "ymin" &&
             (pred.op == CmpOp::kGt || pred.op == CmpOp::kGe)) {
    roi->ymin = std::max(roi->ymin, v);
  } else {
    return Status::Unimplemented(StrFormat(
        "unsupported spatial constraint: %s", pred.ToString().c_str()));
  }
  if (roi->Empty())
    return Status::InvalidArgument("spatial predicates yield an empty ROI");
  return Status::OK();
}

/// Converts `op value` on a count into a minimum-count requirement.
Result<int> MinCountFromComparison(CmpOp op, double value) {
  switch (op) {
    case CmpOp::kGe:
      return static_cast<int>(std::ceil(value));
    case CmpOp::kGt:
      return static_cast<int>(std::floor(value)) + 1;
    case CmpOp::kEq:
      return static_cast<int>(value);  // treated as at-least for scrubbing
    default:
      return Status::Unimplemented(
          "scrubbing requires >=, > or = count comparisons");
  }
}

}  // namespace

Result<AnalyzedQuery> AnalyzeQuery(const FrameQLQuery& query,
                                   const StreamConfig& stream) {
  AnalyzedQuery out;
  out.raw = query;
  out.table = query.table;
  if (query.table != stream.name) {
    return Status::InvalidArgument(
        StrFormat("query table '%s' does not match stream '%s'",
                  query.table.c_str(), stream.name.c_str()));
  }

  // --- fold WHERE conjuncts ---
  int class_id = -1;
  for (const Predicate& pred : query.where) {
    switch (pred.kind) {
      case Predicate::Kind::kClassEq: {
        BLAZEIT_ASSIGN_OR_RETURN(int id, ClassIdFromName(pred.str_value));
        if (class_id != -1 && class_id != id) {
          return Status::InvalidArgument(
              "conflicting class = predicates (a record has one class)");
        }
        class_id = id;
        break;
      }
      case Predicate::Kind::kUdf:
      case Predicate::Kind::kUdfString:
        out.udf_predicates.push_back(pred);
        break;
      case Predicate::Kind::kArea:
        if (pred.op == CmpOp::kGt || pred.op == CmpOp::kGe) {
          out.min_area_px = std::max(out.min_area_px, pred.value);
        } else {
          return Status::Unimplemented(
              "area(mask) supports lower bounds (>, >=) only");
        }
        break;
      case Predicate::Kind::kSpatial:
        BLAZEIT_RETURN_NOT_OK(FoldSpatialIntoRoi(pred, stream, &out.roi));
        out.has_roi = true;
        break;
      case Predicate::Kind::kTimestamp:
        switch (pred.op) {
          case CmpOp::kGe:
          case CmpOp::kGt:
            // Tightest lower bound wins; on a tie the exclusive form is
            // tighter.
            if (pred.value > out.begin_sec) {
              out.begin_sec = pred.value;
              out.begin_exclusive = pred.op == CmpOp::kGt;
            } else if (pred.value == out.begin_sec &&
                       pred.op == CmpOp::kGt) {
              out.begin_exclusive = true;
            }
            break;
          case CmpOp::kLe:
          case CmpOp::kLt:
            // Tightest upper bound wins; on a tie the exclusive form is
            // tighter.
            if (out.end_sec < 0 || pred.value < out.end_sec) {
              out.end_sec = pred.value;
              out.end_inclusive = pred.op == CmpOp::kLe;
            } else if (pred.value == out.end_sec && pred.op == CmpOp::kLt) {
              out.end_inclusive = false;
            }
            break;
          default:
            return Status::Unimplemented(
                "timestamp supports range comparisons only");
        }
        break;
    }
  }
  if (class_id != -1 && stream.FindClass(class_id) == nullptr) {
    // Legal: the class simply never appears; executors handle zero
    // training data by falling back (Algorithm 1).
  }

  // --- HAVING clauses ---
  for (const HavingClause& clause : query.having) {
    if (clause.kind == HavingClause::Kind::kClassCount) {
      if (query.group_by != "timestamp") {
        return Status::InvalidArgument(
            "SUM(class=...) HAVING requires GROUP BY timestamp");
      }
      ClassCountRequirement req;
      BLAZEIT_ASSIGN_OR_RETURN(req.class_id,
                               ClassIdFromName(clause.class_name));
      BLAZEIT_ASSIGN_OR_RETURN(req.min_count,
                               MinCountFromComparison(clause.op, clause.value));
      out.requirements.push_back(req);
    } else {  // kGroupSize
      if (query.group_by != "trackid") {
        return Status::InvalidArgument(
            "COUNT(*) HAVING requires GROUP BY trackid");
      }
      BLAZEIT_ASSIGN_OR_RETURN(int min_frames,
                               MinCountFromComparison(clause.op, clause.value));
      out.persistence_frames =
          std::max<int64_t>(out.persistence_frames, min_frames);
    }
  }

  out.limit = query.limit.value_or(0);
  out.gap = query.gap.value_or(0);
  if (query.confidence) out.confidence = *query.confidence;
  if (query.error_within) out.error = *query.error_within;

  // --- classification (rule-based, Section 5) ---
  if (query.projection == Projection::kFcount ||
      query.projection == Projection::kCountStar) {
    if (class_id == -1) {
      return Status::InvalidArgument(
          "aggregation queries need a class = '...' predicate");
    }
    out.kind = QueryKind::kAggregate;
    out.agg_class = class_id;
    out.scale_to_total = query.projection == Projection::kCountStar;
    return out;
  }
  if (query.projection == Projection::kCountDistinctTrack) {
    if (class_id == -1) {
      return Status::InvalidArgument(
          "COUNT(DISTINCT trackid) needs a class = '...' predicate");
    }
    out.kind = QueryKind::kCountDistinct;
    out.agg_class = class_id;
    return out;
  }
  if (query.projection == Projection::kTimestamp) {
    if (!out.requirements.empty() && out.limit > 0) {
      out.kind = QueryKind::kScrubbing;
      return out;
    }
    if (class_id != -1 && (query.fnr_within || query.fpr_within)) {
      out.kind = QueryKind::kBinarySelect;
      out.sel_class = class_id;
      out.fnr = query.fnr_within.value_or(0.0);
      out.fpr = query.fpr_within.value_or(0.0);
      return out;
    }
    if (class_id != -1) {
      // Timestamp selection without bounds: treat as scrubbing with
      // "at least one" if LIMIT present, else exhaustive.
      if (out.limit > 0) {
        out.kind = QueryKind::kScrubbing;
        out.requirements.push_back({class_id, 1});
        return out;
      }
    }
    out.kind = QueryKind::kExhaustive;
    out.sel_class = class_id;
    return out;
  }
  // SELECT *
  if (class_id != -1) {
    out.kind = QueryKind::kSelection;
    out.sel_class = class_id;
    return out;
  }
  out.kind = QueryKind::kExhaustive;
  out.sel_class = class_id;
  return out;
}

FrameWindow ClampFrameWindow(FrameWindow window, int64_t num_frames) {
  FrameWindow out;
  out.begin = std::clamp<int64_t>(window.begin, 0, num_frames);
  const int64_t end = window.end < 0 ? num_frames : window.end;
  out.end = std::clamp<int64_t>(end, out.begin, num_frames);
  return out;
}

Result<FrameWindow> ResolveFrameWindow(const AnalyzedQuery& query, int fps,
                                       int64_t num_frames) {
  // A genuinely inverted range (end before begin, in seconds) is a query
  // error; a merely narrow range that lands between frames resolves to an
  // empty window and an ordinary empty result below.
  if (query.end_sec >= 0 && query.end_sec < query.begin_sec) {
    return Status::InvalidArgument(
        "time range is empty: its end precedes its begin");
  }
  // Frame t is stamped t/fps seconds, so the window boundaries are exact:
  //   timestamp >= b  -> first frame at or after b   -> ceil(b*fps)
  //   timestamp >  b  -> first frame strictly after  -> ceil, +1 on exact
  //   timestamp <= e  -> last frame at or before e   -> floor(e*fps) + 1
  //   timestamp <  e  -> frames strictly before      -> ceil(e*fps)
  // The products should be integral whenever the bound names a frame
  // instant, but the double multiply can land an ulp off (31.0/30 * 30 ==
  // 31.000000000000004); snap near-integers first so ceil/floor — and the
  // exact-equality exclusivity bump — see the intended value.
  const auto snap = [](double v) {
    const double r = std::round(v);
    return std::abs(v - r) <= 1e-9 * std::max(1.0, std::abs(v)) ? r : v;
  };
  // Saturating double->frame cast: an extreme literal (timestamp >=
  // 1e300) must clamp to the day bounds, not overflow the int64 cast
  // (UB whose wrapped value would invert the window).
  const auto to_frame = [num_frames](double v) -> int64_t {
    if (v >= static_cast<double>(num_frames)) return num_frames;
    if (v <= 0.0) return 0;
    return static_cast<int64_t>(v);
  };
  FrameWindow window;
  const double b = snap(query.begin_sec * fps);
  window.begin = to_frame(std::ceil(b));
  if (query.begin_exclusive && static_cast<double>(window.begin) == b) {
    ++window.begin;
  }
  if (query.end_sec < 0) {
    window.end = -1;
  } else {
    const double e = snap(query.end_sec * fps);
    window.end = query.end_inclusive ? to_frame(std::floor(e)) + 1
                                     : to_frame(std::ceil(e));
    window.end = std::max(window.end, window.begin);  // narrow -> empty
  }
  return ClampFrameWindow(window, num_frames);
}

}  // namespace blazeit
