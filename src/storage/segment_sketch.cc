#include "storage/segment_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "storage/detection_store.h"
#include "util/random.h"
#include "util/string_util.h"

namespace blazeit {

namespace {

// "BZSK" / "BZSM" little-endian.
constexpr uint32_t kSketchMagic = 0x4B535A42u;
constexpr uint32_t kSketchMetaMagic = 0x4D535A42u;

template <typename T>
void AppendPod(const T& v, std::string* out) {
  const char* p = reinterpret_cast<const char*>(&v);
  out->append(p, sizeof(T));
}

/// Bounds-checked little-endian cursor over a payload.
class Cursor {
 public:
  explicit Cursor(const std::string& data) : data_(data) {}

  template <typename T>
  bool Read(T* v) {
    if (pos_ + sizeof(T) > data_.size()) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

Status Malformed(const char* what) {
  return Status::ParseError(
      StrFormat("malformed segment-sketch payload: %s", what));
}

/// Load outcome accounting: how often queries found a current index vs.
/// fell back to the full window (absent = never built, stale = built but
/// out of date or unreadable).
void CountLoad(const char* result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* valid =
      registry.GetCounter("sketch.loads{result=valid}",
                          obs::Stability::kStable);
  static obs::Counter* stale =
      registry.GetCounter("sketch.loads{result=stale}",
                          obs::Stability::kStable);
  static obs::Counter* absent =
      registry.GetCounter("sketch.loads{result=absent}",
                          obs::Stability::kStable);
  if (std::strcmp(result, "valid") == 0) {
    valid->Add();
  } else if (std::strcmp(result, "stale") == 0) {
    stale->Add();
  } else {
    absent->Add();
  }
}

/// Grid bucket answering threshold `t`: the largest bucket whose grid
/// score (i / kSketchScoreBuckets) is <= t, so the bucket's counts cover
/// a superset of the detections at threshold t.
int ThresholdBucket(double t) {
  const int b = static_cast<int>(
      std::floor(t * static_cast<double>(kSketchScoreBuckets)));
  return std::min(std::max(b, 0), kSketchScoreBuckets - 1);
}

/// True when every detection center of the class lies outside `roi`
/// (Rect::Contains is [min, max) per axis, so the boundary comparisons
/// mirror it exactly).
bool ClassOutsideRoi(const ClassSketch& cs, const Rect& roi) {
  return cs.max_cx < roi.xmin || cs.min_cx >= roi.xmax ||
         cs.max_cy < roi.ymin || cs.min_cy >= roi.ymax;
}

/// Upper bound on PixelArea over the class's detections, computed with
/// PixelArea's own expression so IEEE rounding stays monotone (a smaller
/// normalized area can never round to a larger pixel area).
double MaxClassPixelArea(const ClassSketch& cs, int w, int h) {
  return cs.max_area * static_cast<double>(w) * static_cast<double>(h);
}

const ClassSketch* FindClass(const SegmentSketch& sketch, int class_id) {
  for (const ClassSketch& cs : sketch.classes) {
    if (cs.class_id == class_id) return &cs;
  }
  return nullptr;
}

/// Whether a detection of this class could survive the probe's
/// per-detection filters (threshold presence, ROI, min area).
bool ClassCouldPassFilters(const ClassSketch& cs, const SketchProbe& probe,
                           int bucket) {
  if (cs.max_count_ge[bucket] == 0) return false;
  if (probe.has_roi && ClassOutsideRoi(cs, probe.roi)) return false;
  if (probe.min_area_px > 0 &&
      MaxClassPixelArea(cs, probe.frame_width, probe.frame_height) <
          probe.min_area_px) {
    return false;
  }
  return true;
}

}  // namespace

uint64_t SketchNamespace(uint64_t base_ns) {
  Fingerprint f;
  f.Mix(base_ns);
  f.Mix("segment-sketch");
  f.Mix(static_cast<uint64_t>(kSketchFormatVersion));
  f.Mix(kSketchBlockFrames);
  f.Mix(kSketchScoreBuckets);
  return f.value();
}

bool ClassSketch::operator==(const ClassSketch& other) const {
  if (class_id != other.class_id) return false;
  for (int i = 0; i < kSketchScoreBuckets; ++i) {
    if (frames_ge1[i] != other.frames_ge1[i]) return false;
    if (max_count_ge[i] != other.max_count_ge[i]) return false;
  }
  return min_score == other.min_score && max_score == other.max_score &&
         min_cx == other.min_cx && max_cx == other.max_cx &&
         min_cy == other.min_cy && max_cy == other.max_cy &&
         min_area == other.min_area && max_area == other.max_area;
}

bool SegmentSketch::operator==(const SegmentSketch& other) const {
  return first_frame == other.first_frame && covered == other.covered &&
         frames_present == other.frames_present &&
         frames_with_any == other.frames_with_any &&
         class_bitmap == other.class_bitmap && classes == other.classes;
}

std::string EncodeSegmentSketchPayload(const SegmentSketch& sketch) {
  std::string out;
  AppendPod(kSketchMagic, &out);
  AppendPod(kSketchFormatVersion, &out);
  AppendPod(static_cast<uint32_t>(kSketchBlockFrames), &out);
  AppendPod(static_cast<uint32_t>(kSketchScoreBuckets), &out);
  AppendPod(sketch.first_frame, &out);
  AppendPod(sketch.covered, &out);
  AppendPod(sketch.frames_present, &out);
  AppendPod(sketch.frames_with_any, &out);
  AppendPod(static_cast<uint32_t>(sketch.classes.size()), &out);
  AppendPod(sketch.class_bitmap, &out);
  for (const ClassSketch& cs : sketch.classes) {
    AppendPod(cs.class_id, &out);
    for (int i = 0; i < kSketchScoreBuckets; ++i) {
      AppendPod(cs.frames_ge1[i], &out);
    }
    for (int i = 0; i < kSketchScoreBuckets; ++i) {
      AppendPod(cs.max_count_ge[i], &out);
    }
    AppendPod(cs.min_score, &out);
    AppendPod(cs.max_score, &out);
    AppendPod(cs.min_cx, &out);
    AppendPod(cs.max_cx, &out);
    AppendPod(cs.min_cy, &out);
    AppendPod(cs.max_cy, &out);
    AppendPod(cs.min_area, &out);
    AppendPod(cs.max_area, &out);
  }
  return out;
}

Result<SegmentSketch> DecodeSegmentSketchPayload(const std::string& payload) {
  Cursor c(payload);
  uint32_t magic = 0, version = 0, block = 0, buckets = 0;
  if (!c.Read(&magic) || magic != kSketchMagic) return Malformed("magic");
  if (!c.Read(&version) || version != kSketchFormatVersion) {
    return Malformed("version");
  }
  if (!c.Read(&block) || block != static_cast<uint32_t>(kSketchBlockFrames)) {
    return Malformed("block size");
  }
  if (!c.Read(&buckets) ||
      buckets != static_cast<uint32_t>(kSketchScoreBuckets)) {
    return Malformed("score buckets");
  }
  SegmentSketch s;
  uint32_t class_count = 0;
  if (!c.Read(&s.first_frame) || !c.Read(&s.covered) ||
      !c.Read(&s.frames_present) || !c.Read(&s.frames_with_any) ||
      !c.Read(&class_count) || !c.Read(&s.class_bitmap)) {
    return Malformed("header");
  }
  if (s.first_frame < 0 || s.covered > kSketchBlockFrames ||
      s.frames_present > kSketchBlockFrames || class_count > 4096) {
    return Malformed("header ranges");
  }
  s.classes.resize(class_count);
  for (ClassSketch& cs : s.classes) {
    if (!c.Read(&cs.class_id)) return Malformed("class id");
    for (int i = 0; i < kSketchScoreBuckets; ++i) {
      if (!c.Read(&cs.frames_ge1[i])) return Malformed("frames_ge1");
    }
    for (int i = 0; i < kSketchScoreBuckets; ++i) {
      if (!c.Read(&cs.max_count_ge[i])) return Malformed("max_count_ge");
    }
    if (!c.Read(&cs.min_score) || !c.Read(&cs.max_score) ||
        !c.Read(&cs.min_cx) || !c.Read(&cs.max_cx) || !c.Read(&cs.min_cy) ||
        !c.Read(&cs.max_cy) || !c.Read(&cs.min_area) ||
        !c.Read(&cs.max_area)) {
      return Malformed("class ranges");
    }
  }
  if (!c.AtEnd()) return Malformed("trailing bytes");
  return s;
}

std::string EncodeSketchMetaPayload(const SketchMeta& meta) {
  std::string out;
  AppendPod(kSketchMetaMagic, &out);
  AppendPod(kSketchFormatVersion, &out);
  AppendPod(static_cast<uint32_t>(kSketchBlockFrames), &out);
  AppendPod(static_cast<uint32_t>(kSketchScoreBuckets), &out);
  AppendPod(meta.base_ns, &out);
  AppendPod(meta.base_record_count, &out);
  AppendPod(meta.block_count, &out);
  return out;
}

Result<SketchMeta> DecodeSketchMetaPayload(const std::string& payload) {
  Cursor c(payload);
  uint32_t magic = 0, version = 0, block = 0, buckets = 0;
  if (!c.Read(&magic) || magic != kSketchMetaMagic) return Malformed("magic");
  if (!c.Read(&version) || version != kSketchFormatVersion) {
    return Malformed("version");
  }
  if (!c.Read(&block) || block != static_cast<uint32_t>(kSketchBlockFrames)) {
    return Malformed("block size");
  }
  if (!c.Read(&buckets) ||
      buckets != static_cast<uint32_t>(kSketchScoreBuckets)) {
    return Malformed("score buckets");
  }
  SketchMeta m;
  if (!c.Read(&m.base_ns) || !c.Read(&m.base_record_count) ||
      !c.Read(&m.block_count) || !c.AtEnd()) {
    return Malformed("meta body");
  }
  return m;
}

void SketchBuilder::Add(int64_t frame,
                        const std::vector<Detection>& detections) {
  if (frame < 0 || frame <= last_frame_) return;  // out of contract; skip
  last_frame_ = frame;
  const int64_t first = (frame / kSketchBlockFrames) * kSketchBlockFrames;
  if (blocks_.empty() || blocks_.back().first_frame != first) {
    SegmentSketch fresh;
    fresh.first_frame = first;
    blocks_.push_back(fresh);
  }
  SegmentSketch& b = blocks_.back();
  // `covered` grows only while the block is a gap-free prefix: frame k of
  // the block arrives exactly when covered == k.
  if (frame == b.first_frame + static_cast<int64_t>(b.covered) &&
      static_cast<int64_t>(b.frames_present) ==
          static_cast<int64_t>(b.covered)) {
    ++b.covered;
  }
  ++b.frames_present;
  if (!detections.empty()) ++b.frames_with_any;

  // Per-frame per-class counts at every grid threshold.
  struct FrameClass {
    int class_id;
    uint32_t count_ge[kSketchScoreBuckets];
  };
  std::vector<FrameClass> frame_counts;
  for (const Detection& det : detections) {
    if (det.class_id >= 0 && det.class_id < 64) {
      b.class_bitmap |= 1ull << det.class_id;
    }
    // Find or insert the block-level class sketch, keeping class order
    // ascending so rebuilt sketches are byte-identical.
    auto it = std::lower_bound(
        b.classes.begin(), b.classes.end(), det.class_id,
        [](const ClassSketch& cs, int id) { return cs.class_id < id; });
    if (it == b.classes.end() || it->class_id != det.class_id) {
      ClassSketch cs;
      cs.class_id = det.class_id;
      cs.min_score = cs.max_score = det.score;
      const double cx = det.rect.CenterX();
      const double cy = det.rect.CenterY();
      const double area = det.rect.Area();
      cs.min_cx = cs.max_cx = cx;
      cs.min_cy = cs.max_cy = cy;
      cs.min_area = cs.max_area = area;
      it = b.classes.insert(it, cs);
    } else {
      it->min_score = std::min(it->min_score, det.score);
      it->max_score = std::max(it->max_score, det.score);
      const double cx = det.rect.CenterX();
      const double cy = det.rect.CenterY();
      const double area = det.rect.Area();
      it->min_cx = std::min(it->min_cx, cx);
      it->max_cx = std::max(it->max_cx, cx);
      it->min_cy = std::min(it->min_cy, cy);
      it->max_cy = std::max(it->max_cy, cy);
      it->min_area = std::min(it->min_area, area);
      it->max_area = std::max(it->max_area, area);
    }
    auto fc = std::find_if(
        frame_counts.begin(), frame_counts.end(),
        [&det](const FrameClass& f) { return f.class_id == det.class_id; });
    if (fc == frame_counts.end()) {
      frame_counts.push_back({det.class_id, {}});
      fc = frame_counts.end() - 1;
    }
    for (int i = 0; i < kSketchScoreBuckets; ++i) {
      if (det.score >=
          static_cast<double>(i) / static_cast<double>(kSketchScoreBuckets)) {
        ++fc->count_ge[i];
      }
    }
  }
  for (const FrameClass& fc : frame_counts) {
    ClassSketch* cs = nullptr;
    for (ClassSketch& candidate : b.classes) {
      if (candidate.class_id == fc.class_id) {
        cs = &candidate;
        break;
      }
    }
    for (int i = 0; i < kSketchScoreBuckets; ++i) {
      if (fc.count_ge[i] > 0) ++cs->frames_ge1[i];
      cs->max_count_ge[i] = std::max(cs->max_count_ge[i], fc.count_ge[i]);
    }
  }
}

std::vector<SegmentSketch> SketchBuilder::Finish() {
  return std::move(blocks_);
}

SketchIndex SketchIndex::Load(DetectionStore* store, uint64_t base_ns) {
  SketchIndex index;
  if (store == nullptr) return index;
  const uint64_t sketch_ns = SketchNamespace(base_ns);
  auto meta_payload = store->GetRaw(sketch_ns, kSketchMetaFrame);
  if (!meta_payload.ok()) {
    CountLoad("absent");
    return index;
  }
  auto meta = DecodeSketchMetaPayload(meta_payload.value());
  if (!meta.ok() || meta.value().base_ns != base_ns) {
    CountLoad("absent");
    return index;
  }
  // Staleness gate: any Put since the build changes the base record
  // count, and Repair/Compact refresh the sketches in place, so a count
  // match means the sketches describe exactly what reads will serve.
  if (store->RecordCount(base_ns) != meta.value().base_record_count) {
    CountLoad("stale");
    return index;
  }
  std::vector<SegmentSketch> blocks;
  Status scan = store->Scan(
      sketch_ns, [&blocks](int64_t frame, const std::string& payload) {
        if (frame == kSketchMetaFrame) return Status::OK();
        auto sketch = DecodeSegmentSketchPayload(payload);
        BLAZEIT_RETURN_NOT_OK(sketch.status());
        if (sketch.value().first_frame != frame) {
          return Malformed("record key does not match sketch range");
        }
        blocks.push_back(std::move(sketch).value());
        return Status::OK();
      });
  if (!scan.ok() ||
      static_cast<int64_t>(blocks.size()) != meta.value().block_count) {
    CountLoad("stale");
    return index;
  }
  index.meta_ = meta.value();
  index.blocks_ = std::move(blocks);  // Scan yields ascending frame order
  index.valid_ = true;
  CountLoad("valid");
  return index;
}

bool SketchIndex::SegmentCannotMatch(const SegmentSketch& sketch,
                                     const SketchProbe& probe) {
  const int bucket = ThresholdBucket(probe.score_threshold);
  // HAVING SUM(class=c) >= n: refuted when no frame reaches n.
  for (const ClassCountRequirement& req : probe.requirements) {
    const ClassSketch* cs = FindClass(sketch, req.class_id);
    const uint32_t max_count = cs != nullptr ? cs->max_count_ge[bucket] : 0;
    if (max_count < static_cast<uint32_t>(std::max(req.min_count, 0))) {
      return true;
    }
  }
  // Per-detection filters (WHERE class / ROI / area) need one detection
  // that survives all of them.
  if (probe.sel_class >= 0) {
    const ClassSketch* cs = FindClass(sketch, probe.sel_class);
    if (cs == nullptr || !ClassCouldPassFilters(*cs, probe, bucket)) {
      return true;
    }
  } else if (probe.has_roi || probe.min_area_px > 0) {
    bool any_class_could = false;
    for (const ClassSketch& cs : sketch.classes) {
      if (ClassCouldPassFilters(cs, probe, bucket)) {
        any_class_could = true;
        break;
      }
    }
    if (!any_class_could) return true;
  } else if (probe.require_any) {
    for (const ClassSketch& cs : sketch.classes) {
      if (cs.max_count_ge[bucket] > 0) return false;
    }
    return true;
  }
  return false;
}

std::vector<SketchIndex::FrameRange> SketchIndex::CandidateRanges(
    int64_t begin, int64_t end, const SketchProbe& probe) const {
  std::vector<FrameRange> out;
  if (begin >= end) return out;
  if (!valid_) {
    out.push_back({begin, end});
    return out;
  }
  auto emit = [&out](int64_t b, int64_t e) {
    if (b >= e) return;
    if (!out.empty() && out.back().end == b) {
      out.back().end = e;  // merge adjacent candidates
    } else {
      out.push_back({b, e});
    }
  };
  static obs::Counter* consulted = obs::MetricsRegistry::Global().GetCounter(
      "sketch.blocks_consulted", obs::Stability::kStable);
  static obs::Counter* refuted = obs::MetricsRegistry::Global().GetCounter(
      "sketch.blocks_refuted", obs::Stability::kStable);
  int64_t pos = begin;
  for (const SegmentSketch& block : blocks_) {
    const int64_t b_begin = block.first_frame;
    const int64_t b_end = block.first_frame + kSketchBlockFrames;
    if (b_end <= pos) continue;
    if (b_begin >= end) break;
    const int64_t i_begin = std::max(pos, b_begin);
    const int64_t i_end = std::min(end, b_end);
    // Frames before this block have no sketch: always candidates.
    emit(pos, i_begin);
    // A subrange is prunable only when the sketch covers it without gaps
    // — an uncovered frame could hold anything.
    const bool fully_covered =
        i_end <= b_begin + static_cast<int64_t>(block.covered);
    consulted->Add();
    if (!fully_covered || !SegmentCannotMatch(block, probe)) {
      emit(i_begin, i_end);
    } else {
      refuted->Add();
    }
    pos = i_end;
    if (pos >= end) break;
  }
  emit(pos, end);
  return out;
}

}  // namespace blazeit
