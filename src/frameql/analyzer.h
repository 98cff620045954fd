#ifndef BLAZEIT_FRAMEQL_ANALYZER_H_
#define BLAZEIT_FRAMEQL_ANALYZER_H_

#include <string>
#include <vector>

#include "frameql/ast.h"
#include "util/status.h"
#include "video/geometry.h"
#include "video/scene_model.h"

namespace blazeit {

/// The query classes BlazeIt's rule-based optimizer recognizes
/// (Sections 5-8). Anything else runs exhaustively.
enum class QueryKind {
  kAggregate,      // FCOUNT/COUNT with an error tolerance (Section 6)
  kCountDistinct,  // COUNT(DISTINCT trackid)
  kScrubbing,      // timestamp selection with class-count HAVING + LIMIT
                   // (Section 7)
  kSelection,      // SELECT * with content predicates (Section 8)
  kBinarySelect,   // NoScope-style timestamp selection with FNR/FPR bounds
  kExhaustive,     // no optimization applies
};

const char* QueryKindName(QueryKind kind);

/// "At least N instances of this class" requirement extracted from a
/// scrubbing query's HAVING clauses.
struct ClassCountRequirement {
  int class_id = kCar;
  int min_count = 1;
};

/// Semantic summary of a FrameQL query against a specific stream: what the
/// executors consume. Spatial predicates are folded into an ROI,
/// timestamp predicates into a time range, pixel-valued thresholds are
/// normalized using the stream's nominal resolution.
struct AnalyzedQuery {
  QueryKind kind = QueryKind::kExhaustive;
  std::string table;

  // --- aggregation ---
  int agg_class = -1;
  double error = 0.1;
  double confidence = 0.95;
  /// True for COUNT(*) (scaled by frame count); false for FCOUNT(*).
  bool scale_to_total = false;

  // --- scrubbing ---
  std::vector<ClassCountRequirement> requirements;
  int64_t limit = 0;
  int64_t gap = 0;

  // --- selection / exhaustive ---
  /// Class named by the WHERE clause; -1 when the query has none. Carried
  /// for exhaustive plans too, so a full scan still honors the predicate.
  int sel_class = -1;
  /// Content UDF conjuncts (kUdf predicates).
  std::vector<Predicate> udf_predicates;
  /// Minimum pixel area from area(mask) predicates; 0 if absent.
  double min_area_px = 0.0;
  /// ROI folded from spatial predicates; the unit rect if absent.
  Rect roi{0, 0, 1, 1};
  bool has_roi = false;
  /// Minimum track persistence (frames) from HAVING COUNT(*) on trackid.
  int64_t persistence_frames = 0;
  /// Time range in seconds; end < 0 means "to the end". The bounds carry
  /// their comparison ops' inclusivity (timestamp > b vs >= b, < e vs
  /// <= e) so ResolveFrameWindow lands frame-exact boundaries — a frame
  /// stamped exactly `end_sec` belongs to a `<=` range but not a `<` one.
  double begin_sec = 0.0;
  double end_sec = -1.0;
  bool begin_exclusive = false;
  bool end_inclusive = false;

  // --- binary select ---
  double fnr = 0.0;
  double fpr = 0.0;

  /// The parsed query this analysis came from.
  FrameQLQuery raw;
};

/// Classifies and validates a parsed query against a stream's schema.
Result<AnalyzedQuery> AnalyzeQuery(const FrameQLQuery& query,
                                   const StreamConfig& stream);

/// Half-open test-day frame window [begin, end) an executor must restrict
/// itself to. The default ({0, -1}) means the whole day; executors resolve
/// end < 0 to the day length.
struct FrameWindow {
  int64_t begin = 0;
  int64_t end = -1;
};

/// Clamps a window to [0, num_frames), resolving the end < 0 sentinel.
/// A window past the end of the day collapses to empty (begin == end).
FrameWindow ClampFrameWindow(FrameWindow window, int64_t num_frames);

/// Resolves the analyzed time range (begin_sec/end_sec at `fps`) to the
/// test-day frame window every executor enforces — the same arithmetic
/// selection's TemporalFilter::SetTimeRange applies, shared so that
/// `timestamp >= …` predicates mean one thing across all plans.
/// InvalidArgument when an explicit end does not exceed the begin.
Result<FrameWindow> ResolveFrameWindow(const AnalyzedQuery& query, int fps,
                                       int64_t num_frames);

}  // namespace blazeit

#endif  // BLAZEIT_FRAMEQL_ANALYZER_H_
