#include "core/selection.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "exec/frame_pipeline.h"
#include "filters/calibration.h"
#include "filters/content_filter.h"
#include "filters/spatial_filter.h"
#include "filters/temporal_filter.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace blazeit {

namespace {

/// Evaluates the object-level UDF predicates against a crop of the
/// rendered frame.
bool UdfPredicatesPass(const std::vector<Predicate>& preds,
                       const UdfRegistry& udfs, const Image& frame,
                       const Rect& box) {
  for (const Predicate& pred : preds) {
    if (pred.kind != Predicate::Kind::kUdf) continue;
    auto udf = udfs.Get(pred.name);
    if (!udf.ok()) return false;  // unknown UDF: cannot satisfy
    Image crop = frame.Crop(box);
    if (!EvalCmp(udf.value()(crop), pred.op, pred.value)) return false;
  }
  return true;
}

bool HasUdfPredicates(const AnalyzedQuery& query) {
  for (const Predicate& pred : query.udf_predicates) {
    if (pred.kind == Predicate::Kind::kUdf) return true;
  }
  return false;
}

constexpr int kUdfRaster = 48;  // render size for object-level UDF checks

}  // namespace

SelectionExecutor::SelectionExecutor(StreamData* stream,
                                     const UdfRegistry* udfs,
                                     SelectionOptions options,
                                     ArtifactCache* sweep_cache,
                                     obs::QueryTrace* trace)
    : stream_(stream),
      udfs_(udfs),
      cache_(sweep_cache != nullptr ? sweep_cache : stream->artifact_cache),
      options_(options),
      trace_(trace) {}

bool SelectionExecutor::FrameMatches(const LabeledSet& labels, int64_t frame,
                                     const AnalyzedQuery& query,
                                     std::vector<SelectionRow>* rows,
                                     Image* render_scratch) const {
  const std::vector<Detection>& dets = labels.DetectionsAt(frame);
  bool any = false;
  bool rendered_this_frame = false;  // render lazily, at most once per frame
  Image& rendered = *render_scratch;
  const bool needs_pixels = HasUdfPredicates(query);
  for (const Detection& det : dets) {
    if (det.class_id != query.sel_class) continue;
    if (query.has_roi &&
        !query.roi.Contains(det.rect.CenterX(), det.rect.CenterY())) {
      continue;
    }
    if (query.min_area_px > 0 &&
        PixelArea(det.rect, stream_->config.width, stream_->config.height) <
            query.min_area_px) {
      continue;
    }
    if (needs_pixels) {
      if (!rendered_this_frame) {
        labels.day().RenderFrameRegionInto(frame, Rect{0, 0, 1, 1},
                                           kUdfRaster, kUdfRaster, &rendered);
        rendered_this_frame = true;
      }
      if (!UdfPredicatesPass(query.udf_predicates, *udfs_, rendered,
                             det.rect)) {
        continue;
      }
    }
    any = true;
    if (rows != nullptr) rows->push_back({frame, det});
  }
  return any;
}

Result<SelectionResult> SelectionExecutor::Run(const AnalyzedQuery& query) {
  if (query.kind != QueryKind::kSelection)
    return Status::InvalidArgument("not a selection query");
  if (query.sel_class < 0)
    return Status::InvalidArgument("selection requires a class predicate");
  CostMeter meter;
  std::vector<std::string> plan_parts;

  // ---- temporal filter (exact; inferred from persistence + time range) --
  TemporalFilter temporal;
  if (options_.use_temporal_filter && query.persistence_frames > 2) {
    temporal.set_stride(
        TemporalFilter::StrideForPersistence(query.persistence_frames));
    plan_parts.push_back(StrFormat("temporal(stride=%lld)",
                                   static_cast<long long>(temporal.stride())));
  }
  // The same window arithmetic every executor applies. An empty resolved
  // window (range past the recorded day, or one so narrow no frame falls
  // inside) means zero frames can match; return empty rather than
  // training and calibrating filters to discover that.
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream_->config.fps,
                         stream_->test_day->num_frames()));
  if (window.end <= window.begin) {
    SelectionResult empty;
    empty.plan = "empty time range";
    return empty;
  }
  BLAZEIT_RETURN_NOT_OK(temporal.SetTimeRange(window.begin, window.end));

  // ---- spatial filter (exact; reduces detector cost) ----
  std::unique_ptr<SpatialFilter> spatial;
  double detection_aspect = 16.0 / 9.0;
  if (options_.use_spatial_filter && query.has_roi) {
    spatial = std::make_unique<SpatialFilter>(
        query.roi, stream_->config.width, stream_->config.height);
    detection_aspect = spatial->AspectRatio();
    plan_parts.push_back(
        StrFormat("spatial(aspect=%.2f, %.1fx cheaper detection)",
                  spatial->AspectRatio(), spatial->Speedup()));
  }

  // ---- positive masks on the held-out day (offline, uncharged) ----
  // Sharded across the exec pool: every frame writes only its own mask
  // slots, FrameMatches renders into per-worker scratch, and the labeled
  // set's lazy build is thread-safe — so the masks (and everything
  // calibrated from them) are identical at any thread count.
  const SyntheticVideo& held = *stream_->held_out_day;
  const std::vector<int>& held_counts =
      stream_->held_out_labels->Counts(query.sel_class);
  std::vector<char> predicate_positive(static_cast<size_t>(held.num_frames()),
                                       0);
  std::vector<char> class_positive(predicate_positive.size(), 0);
  obs::TraceSpan holdout_span(trace_, "holdout-masks", &meter);
  exec::FramePipeline::Run(
      held.num_frames(),
      [&](int64_t begin, int64_t end, exec::FramePipeline::Scratch* scratch) {
        for (int64_t t = begin; t < end; ++t) {
          if (held_counts[static_cast<size_t>(t)] == 0) continue;
          class_positive[static_cast<size_t>(t)] = 1;
          if (FrameMatches(*stream_->held_out_labels, t, query, nullptr,
                           &scratch->image)) {
            predicate_positive[static_cast<size_t>(t)] = 1;
          }
        }
      });
  holdout_span.Close();

  // ---- content filter (statistical; calibrated for no false negatives) --
  std::vector<int64_t> held_frames(static_cast<size_t>(held.num_frames()));
  std::iota(held_frames.begin(), held_frames.end(), int64_t{0});
  std::optional<ContentFilter> content;
  double content_threshold = 0.0;
  if (options_.use_content_filter) {
    obs::TraceSpan span(trace_, "calibrate:content", &meter);
    for (const Predicate& pred : query.udf_predicates) {
      if (pred.kind != Predicate::Kind::kUdf) continue;
      if (pred.op != CmpOp::kGe && pred.op != CmpOp::kGt) continue;
      auto udf = udfs_->Get(pred.name);
      if (!udf.ok()) continue;
      // Content scores render frames; persist them when the UDF has a
      // stable content fingerprint (built-ins do, ad-hoc closures do not).
      ContentFilter candidate(udf.value(), cache_,
                              udfs_->FingerprintFor(pred.name));
      auto calib = CalibrateNoFalseNegatives(
          candidate.ScoreBatch(held, held_frames), predicate_positive);
      if (!calib.ok()) {
        BLAZEIT_LOG(kDebug) << "content filter '" << pred.name
                            << "' skipped: " << calib.status().ToString();
        continue;
      }
      meter.ChargeThresholding(held.num_frames());
      // Deploy only if it actually discards frames (Section 8.1: BlazeIt
      // learns which UDFs are effective as frame-level filters).
      if (calib.value().selectivity < 0.95) {
        content = std::move(candidate);
        content_threshold = calib.value().threshold;
        plan_parts.push_back(StrFormat(
            "content(%s>=%.4f, sel=%.2f)", pred.name.c_str(),
            calib.value().threshold, calib.value().selectivity));
        break;
      }
    }
  }

  // ---- label filter (specialized NN; calibrated on class presence) ----
  std::optional<SpecializedNN> label;
  double label_threshold = 0.0;
  if (options_.use_label_filter) {
    obs::TraceSpan span(trace_, "train:label-filter", &meter);
    const std::vector<int>& train_counts =
        stream_->train_labels->Counts(query.sel_class);
    int64_t positives = 0;
    for (int c : train_counts) {
      if (c > 0) ++positives;
    }
    if (positives > 0) {
      SpecializedNNConfig nn_config = options_.nn;
      nn_config.train.seed = HashCombine(options_.seed, 0x3e1e);
      nn_config.cache = cache_;
      auto trained = SpecializedNN::Train(*stream_->train_day, {train_counts},
                                          nn_config);
      BLAZEIT_RETURN_NOT_OK(trained.status());
      meter.ChargeTraining(trained.value().trained_frames());
      // Calibrate against the frames satisfying the *full* predicate when
      // any exist: the filter only needs to keep frames this query cares
      // about, which gives a much tighter threshold than class presence.
      bool any_predicate_positive = false;
      for (char p : predicate_positive) {
        if (p) {
          any_predicate_positive = true;
          break;
        }
      }
      auto calib = CalibrateNoFalseNegatives(
          PresenceScores(trained.value(), held, held_frames),
          any_predicate_positive ? predicate_positive : class_positive);
      if (calib.ok()) {
        meter.ChargeSpecializedNN(held.num_frames());
        meter.ChargeThresholding(held.num_frames());
        // Deploy only if the filter actually discards frames (Section 8:
        // the optimizer selects between filters by estimated selectivity;
        // a filter that keeps everything just adds NN cost).
        if (calib.value().selectivity < 0.9) {
          label = std::move(trained).value();
          label_threshold = calib.value().threshold;
          plan_parts.push_back(StrFormat("label(th=%.3f, sel=%.2f)",
                                         calib.value().threshold,
                                         calib.value().selectivity));
        } else {
          BLAZEIT_LOG(kDebug)
              << "label filter not selective (sel="
              << calib.value().selectivity << "); skipped";
        }
      }
    }
  }

  // ---- execute the cascade over the test day, cheapest filter first ----
  obs::TraceSpan cascade_span(trace_, "cascade", &meter);
  const SyntheticVideo& test = *stream_->test_day;
  SelectionResult result;
  std::vector<int64_t> matched_frames;
  std::vector<int64_t> candidates = temporal.CandidateFrames(test.num_frames());
  result.candidates = static_cast<int64_t>(candidates.size());
  // Stage 1: content filter (cheapest). Scored through ScoreBatch so the
  // persistent score cache applies; one ChargeFilter per candidate either
  // way.
  std::vector<int64_t> after_content;
  if (content) {
    std::vector<double> scores = content->ScoreBatch(test, candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
      meter.ChargeFilter();
      if (scores[i] >= content_threshold) {
        after_content.push_back(candidates[i]);
      }
    }
  } else {
    after_content = std::move(candidates);
  }
  // Stage 2: label filter (specialized NN, batched).
  std::vector<int64_t> after_label;
  if (label) {
    std::vector<double> scores = PresenceScores(*label, test, after_content);
    meter.ChargeSpecializedNN(static_cast<int64_t>(after_content.size()));
    for (size_t i = 0; i < after_content.size(); ++i) {
      if (scores[i] >= label_threshold) {
        after_label.push_back(after_content[i]);
      }
    }
  } else {
    after_label = std::move(after_content);
  }
  cascade_span.Close();
  // Stage 3: full object detection on the survivors — serial: result.rows
  // appends in frame order and the cost meter is an ordered accumulator.
  obs::TraceSpan verify_span(trace_, "verify", &meter);
  Image verify_scratch;
  for (int64_t frame : after_label) {
    meter.ChargeDetectionAspect(detection_aspect);
    ++result.frames_detected;
    if (FrameMatches(*stream_->test_labels, frame, query, &result.rows,
                     &verify_scratch)) {
      matched_frames.push_back(frame);
    }
  }

  // ---- merge matches into events ----
  const int64_t merge_gap = 2 * std::max<int64_t>(1, temporal.stride());
  for (int64_t frame : matched_frames) {
    if (!result.events.empty() &&
        frame - result.events.back().last_frame <= merge_gap) {
      result.events.back().last_frame = frame;
    } else {
      result.events.push_back({frame, frame});
    }
  }
  result.cost = meter;
  result.plan = plan_parts.empty() ? "naive (no applicable filters)"
                                   : Join(plan_parts, " ");
  return result;
}

std::vector<double> PresenceScores(const SpecializedNN& nn,
                                   const SyntheticVideo& video,
                                   const std::vector<int64_t>& frames) {
  std::vector<float> scores = nn.QueryConfidencesForFrames(video, frames, {1});
  return std::vector<double>(scores.begin(), scores.end());
}

std::vector<SelectionEvent> GroundTruthSelectionEvents(
    const SyntheticVideo& video, const AnalyzedQuery& query,
    const UdfRegistry& udfs) {
  std::vector<SelectionEvent> events;
  bool in_run = false;
  int64_t run_start = 0;
  auto object_matches = [&](const GroundTruthObject& obj) {
    if (obj.class_id != query.sel_class) return false;
    if (query.has_roi &&
        !query.roi.Contains(obj.rect.CenterX(), obj.rect.CenterY())) {
      return false;
    }
    if (query.min_area_px > 0 &&
        PixelArea(obj.rect, video.config().width, video.config().height) <
            query.min_area_px) {
      return false;
    }
    for (const Predicate& pred : query.udf_predicates) {
      if (pred.kind != Predicate::Kind::kUdf) continue;
      auto udf = udfs.Get(pred.name);
      if (!udf.ok()) return false;
      // Evaluate the UDF on the object's intrinsic color (a 1x1 image):
      // ground truth is defined by the scene, not the renderer's noise.
      Image swatch(1, 1);
      swatch.SetPixel(0, 0, obj.color);
      if (!EvalCmp(udf.value()(swatch), pred.op, pred.value)) return false;
    }
    return true;
  };

  for (int64_t t = 0; t <= video.num_frames(); ++t) {
    bool match = false;
    if (t < video.num_frames()) {
      for (const GroundTruthObject& obj : video.GroundTruth(t)) {
        if (object_matches(obj)) {
          match = true;
          break;
        }
      }
    }
    if (match && !in_run) {
      in_run = true;
      run_start = t;
    } else if (!match && in_run) {
      in_run = false;
      int64_t length = t - run_start;
      if (length >= std::max<int64_t>(1, query.persistence_frames)) {
        events.push_back({run_start, t - 1});
      }
    }
  }
  return events;
}

}  // namespace blazeit
