#ifndef BLAZEIT_STORAGE_SEGMENT_SKETCH_H_
#define BLAZEIT_STORAGE_SEGMENT_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "detect/detection.h"
#include "frameql/analyzer.h"
#include "util/status.h"
#include "video/geometry.h"

namespace blazeit {

class DetectionStore;

/// Zone-map sketches over a detection namespace (the "Provenance-based
/// Data Skipping" idea applied to BlazeIt's store): the test day is cut
/// into fixed video segments of kSketchBlockFrames frames, and each
/// segment gets one sketch record summarizing every detection payload in
/// it — class-presence bitmap, a per-class count histogram over a fixed
/// score-threshold grid, score min/max, and bbox center/area ranges.
/// Sketch records are persisted as a derived record kind in the store
/// (namespace SketchNamespace(base), behind the same versioned format,
/// CRC, and epoch machinery as every other record), so the query path can
/// skip whole segments without decoding a single detection payload.
///
/// The contract that keeps pruning sound: a sketch may only rule a segment
/// out *conservatively*. Per-class count bounds are taken over a score
/// grid at or below any query threshold (a superset of the thresholded
/// detections the executors see), and geometry ranges are taken over all
/// detections of the class, so "the sketch says no frame here can match"
/// is provable, never probabilistic. Pruned frames are exactly frames the
/// executor would have rejected, which is why indexed and unindexed runs
/// return bit-identical outputs (sketch_invariance_test).
///
/// Staleness is handled two ways. Lazily: the meta record stores the base
/// namespace's record count at build time, and SketchIndex::Load treats a
/// mismatch (any later Put) as "no index". Eagerly: the store rebuilds
/// sketches when it flushes new records of an indexed namespace, keeps
/// them across Compact (which preserves the resolved view), and rebuilds
/// them when Repair rewrites payloads (see DetectionStore).
inline constexpr uint32_t kSketchFormatVersion = 1;
/// Frames per sketched video segment. 512 frames (~17 s at 30 fps)
/// balances skip granularity against index size: a one-hour day is ~210
/// sketch records.
inline constexpr int64_t kSketchBlockFrames = 512;
/// Score-threshold grid: bucket i summarizes detections with
/// score >= i / kSketchScoreBuckets. A query threshold t is answered from
/// bucket floor(t * kSketchScoreBuckets) — at or below t, so the bucket's
/// counts bound the thresholded counts from above.
inline constexpr int kSketchScoreBuckets = 8;
/// Record key of the per-namespace sketch meta record. Detection records
/// use frames >= 0, so the key cannot collide.
inline constexpr int64_t kSketchMetaFrame = -1;

/// Namespace the sketches of `base_ns` live under. Pure function of the
/// base namespace and the sketch format parameters, so a format or block
/// size change orphans old sketches instead of replaying them (the base
/// namespace already mixes in kDerivedArtifactEpoch).
uint64_t SketchNamespace(uint64_t base_ns);

/// Per-class summary inside one sketched segment.
struct ClassSketch {
  int32_t class_id = 0;
  /// frames_ge1[i]: frames with >= 1 detection of the class at score grid
  /// bucket i (a temporal density summary; no probe reads it yet, but it
  /// is part of the on-disk format). max_count_ge[i]: max per-frame count
  /// at bucket i — bounds any HAVING SUM(class=c) >= n conjunct.
  uint32_t frames_ge1[kSketchScoreBuckets] = {};
  uint32_t max_count_ge[kSketchScoreBuckets] = {};
  /// Score and geometry ranges over ALL detections of the class (any
  /// score): exact doubles produced by the same Rect::CenterX/CenterY/
  /// Area arithmetic the executors apply, so ROI and min-area pruning
  /// compare like against like with no epsilon.
  double min_score = 0, max_score = 0;
  double min_cx = 0, max_cx = 0;
  double min_cy = 0, max_cy = 0;
  double min_area = 0, max_area = 0;

  bool operator==(const ClassSketch& other) const;
};

/// One sketched video segment: frames [first_frame, first_frame +
/// kSketchBlockFrames) of the base namespace.
struct SegmentSketch {
  int64_t first_frame = 0;
  /// Contiguous run of base records starting exactly at first_frame.
  /// Pruning a scan subrange is only sound when the subrange lies inside
  /// [first_frame, first_frame + covered) — a gap could hide frames the
  /// sketch never saw.
  uint32_t covered = 0;
  /// Base records present anywhere in the block (>= covered when the
  /// block has holes after a gap).
  uint32_t frames_present = 0;
  /// Frames with at least one detection of any class at any score.
  uint32_t frames_with_any = 0;
  /// Bit c set when class c appears in the block (any score).
  uint64_t class_bitmap = 0;
  /// One entry per set bitmap bit, ascending class_id.
  std::vector<ClassSketch> classes;

  bool operator==(const SegmentSketch& other) const;
};

/// Per-namespace sketch metadata (record kSketchMetaFrame).
struct SketchMeta {
  uint64_t base_ns = 0;
  /// store->RecordCount(base_ns) when the sketches were built; Load
  /// treats any difference as a stale index.
  int64_t base_record_count = 0;
  int64_t block_count = 0;
};

/// Sketch payload codecs, strict like the other record codecs: own magic,
/// version, and exact length checks, so store-wide Repair recognizes
/// sketch records as valid engine payloads.
std::string EncodeSegmentSketchPayload(const SegmentSketch& sketch);
Result<SegmentSketch> DecodeSegmentSketchPayload(const std::string& payload);
std::string EncodeSketchMetaPayload(const SketchMeta& meta);
Result<SketchMeta> DecodeSketchMetaPayload(const std::string& payload);

/// Streaming builder: feed every (frame, detections) of the base
/// namespace in ascending frame order, then Finish().
class SketchBuilder {
 public:
  void Add(int64_t frame, const std::vector<Detection>& detections);
  std::vector<SegmentSketch> Finish();

 private:
  std::vector<SegmentSketch> blocks_;
  int64_t last_frame_ = -1;
};

/// The conjuncts a sketch can refute for one scan. Thresholded fields
/// mirror what the executors check per frame (LabeledSet thresholds at
/// score >= score_threshold).
struct SketchProbe {
  /// The stream's detection threshold; answered from the grid bucket at
  /// or below it.
  double score_threshold = 0.0;
  /// HAVING SUM(class=c) >= n conjuncts; a segment where any requirement
  /// is unsatisfiable on every frame is skippable.
  std::vector<ClassCountRequirement> requirements;
  /// WHERE class = c (-1: none). With has_roi/min_area_px, the per-
  /// detection filters of the full scan.
  int sel_class = -1;
  bool has_roi = false;
  Rect roi{0, 0, 1, 1};
  /// Pixel-area threshold plus the frame size it is evaluated at
  /// (PixelArea(rect, w, h) < min_area_px filters a detection out).
  double min_area_px = 0.0;
  int frame_width = 0;
  int frame_height = 0;
  /// Frames must have >= 1 detection at the threshold to match (the
  /// predicate-free full scan).
  bool require_any = false;
};

/// Loaded, validity-checked sketch index of one base namespace, consulted
/// by the executors. An index that failed to load (absent, stale, or
/// malformed) is simply not `valid()`, and consultation degrades to "no
/// pruning" — never to an error on the query path.
class SketchIndex {
 public:
  SketchIndex() = default;

  /// Loads the sketches of `base_ns`; invalid (not an error) when the
  /// store is null, the sketches are absent, or the meta record count no
  /// longer matches the base namespace.
  static SketchIndex Load(DetectionStore* store, uint64_t base_ns);

  bool valid() const { return valid_; }
  const std::vector<SegmentSketch>& blocks() const { return blocks_; }
  const SketchMeta& meta() const { return meta_; }

  /// True when no frame of `sketch` can satisfy the probe — the per-
  /// conjunct refutation at the heart of data skipping.
  static bool SegmentCannotMatch(const SegmentSketch& sketch,
                                 const SketchProbe& probe);

  /// Subranges of [begin, end) that may contain matches: the scan range
  /// minus every fully-covered segment the probe refutes. Adjacent
  /// surviving subranges are merged; an invalid index returns the whole
  /// range. Segment boundaries never leak into results — the ranges are
  /// clipped to [begin, end), so ResolveFrameWindow semantics are
  /// honored exactly.
  struct FrameRange {
    int64_t begin = 0;
    int64_t end = 0;
  };
  std::vector<FrameRange> CandidateRanges(int64_t begin, int64_t end,
                                          const SketchProbe& probe) const;

 private:
  bool valid_ = false;
  SketchMeta meta_;
  /// Ascending first_frame.
  std::vector<SegmentSketch> blocks_;
};

}  // namespace blazeit

#endif  // BLAZEIT_STORAGE_SEGMENT_SKETCH_H_
