#include "core/engine.h"

#include <chrono>
#include <numeric>
#include <optional>

#include "core/shared_sweep.h"
#include "filters/calibration.h"
#include "frameql/parser.h"
#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "storage/segment_sketch.h"
#include "track/iou_tracker.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace blazeit {

namespace {

/// The sketch probe mirroring exactly the per-frame predicate a full scan
/// evaluates (requirements, class/ROI/area detection filters, or bare
/// any-detection).
SketchProbe ProbeForQuery(const StreamData& stream,
                          const AnalyzedQuery& query) {
  SketchProbe probe;
  probe.requirements = query.requirements;
  probe.sel_class = query.sel_class;
  probe.has_roi = query.has_roi;
  probe.roi = query.roi;
  probe.min_area_px = query.min_area_px;
  probe.frame_width = stream.config.width;
  probe.frame_height = stream.config.height;
  probe.require_any = query.requirements.empty() && query.sel_class < 0 &&
                      !query.has_roi && query.min_area_px <= 0;
  return probe;
}

/// The WHERE conjuncts that the plans of one query kind evaluate, beyond
/// class and timestamp, which every plan does. Analysis folds ROI, area
/// and content-UDF conjuncts into every query, so a kind whose plans skip
/// one would answer a different query than was asked.
struct EvaluatedConjuncts {
  bool roi, area, udf;
};

EvaluatedConjuncts EvaluatedConjunctsFor(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSelection:
      return {.roi = true, .area = true, .udf = true};
    case QueryKind::kExhaustive:
      return {.roi = true, .area = true, .udf = false};
    case QueryKind::kAggregate:
    case QueryKind::kCountDistinct:
    case QueryKind::kScrubbing:
    case QueryKind::kBinarySelect:
      break;
  }
  return {.roi = false, .area = false, .udf = false};
}

/// Unimplemented, naming the conjunct, when `query` carries a WHERE
/// conjunct that its kind's plans would drop.
Status RefuseDroppedConjuncts(const AnalyzedQuery& query) {
  const EvaluatedConjuncts evaluated = EvaluatedConjunctsFor(query.kind);
  for (const Predicate& pred : query.raw.where) {
    const bool dropped =
        (pred.kind == Predicate::Kind::kSpatial && !evaluated.roi) ||
        (pred.kind == Predicate::Kind::kArea && !evaluated.area) ||
        (pred.kind == Predicate::Kind::kUdf && !evaluated.udf) ||
        // No plan evaluates string-valued UDFs (classify(content) = 'x').
        pred.kind == Predicate::Kind::kUdfString;
    if (dropped) {
      return Status::Unimplemented(
          StrFormat("%s queries do not evaluate the conjunct '%s'",
                    QueryKindName(query.kind), pred.ToString().c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

BlazeItEngine::BlazeItEngine(VideoCatalog* catalog, EngineOptions options)
    : catalog_(catalog), options_(options) {
  if (!options_.export_statusz) return;
  obs::StatusRegistry& registry = obs::StatusRegistry::Global();
  statusz_tokens_.push_back(registry.AddSection("engine", [this] {
    std::string streams = "[";
    bool first = true;
    for (const std::string& name : catalog_->StreamNames()) {
      if (!first) streams += ",";
      first = false;
      streams += '"';
      streams += JsonEscape(name);
      streams += '"';
    }
    streams += "]";
    return StrFormat(
        "{\"streams\":%s,\"use_store_index\":%s,\"collect_reports\":%s}",
        streams.c_str(), options_.use_store_index ? "true" : "false",
        options_.collect_reports ? "true" : "false");
  }));
  statusz_tokens_.push_back(registry.AddSection("storage", [this] {
    DetectionStore* store = catalog_->detection_store();
    if (store == nullptr) return std::string("{\"enabled\":false}");
    std::string out = StrFormat(
        "{\"enabled\":true,\"dir\":\"%s\",\"total_records\":%lld,"
        "\"pending_records\":%lld,\"namespaces\":[",
        JsonEscape(store->dir()).c_str(),
        static_cast<long long>(store->TotalRecords()),
        static_cast<long long>(store->pending_records()));
    bool first = true;
    for (const auto& ns : store->PerNamespaceStats()) {
      if (!first) out += ",";
      first = false;
      out += StrFormat(
          "{\"ns\":\"%016llx\",\"segments\":%lld,\"records\":%lld,"
          "\"pending\":%lld,\"shadowed\":%lld}",
          static_cast<unsigned long long>(ns.ns),
          static_cast<long long>(ns.segments),
          static_cast<long long>(ns.records),
          static_cast<long long>(ns.pending),
          static_cast<long long>(ns.shadowed));
    }
    out += "]}";
    return out;
  }));
}

BlazeItEngine::~BlazeItEngine() {
  for (int64_t token : statusz_tokens_) {
    obs::StatusRegistry::Global().Remove(token);
  }
}

Result<PreparedQuery> BlazeItEngine::Prepare(const std::string& frameql,
                                             obs::QueryTrace* trace) {
  PreparedQuery prepared;
  FrameQLQuery parsed;
  {
    obs::TraceSpan span(trace, "parse");
    BLAZEIT_ASSIGN_OR_RETURN(parsed, ParseFrameQL(frameql));
  }
  {
    obs::TraceSpan span(trace, "analyze");
    BLAZEIT_ASSIGN_OR_RETURN(prepared.stream,
                             catalog_->GetStream(parsed.table));
    BLAZEIT_ASSIGN_OR_RETURN(
        prepared.query, AnalyzeQuery(parsed, prepared.stream->config));
    BLAZEIT_RETURN_NOT_OK(RefuseDroppedConjuncts(prepared.query));
  }
  prepared.correlation_id = obs::FlightRecorder::NextCorrelationId();
  return prepared;
}

Result<QueryOutput> BlazeItEngine::Execute(const std::string& frameql) {
  const auto started = std::chrono::steady_clock::now();
  std::shared_ptr<obs::QueryTrace> trace;
  if (options_.collect_reports) {
    trace = std::make_shared<obs::QueryTrace>(frameql);
  }
  Result<PreparedQuery> prepared = Prepare(frameql, trace.get());
  Result<QueryOutput> result =
      prepared.ok() ? ExecutePrepared(prepared.value(), /*view=*/nullptr,
                                      /*batch_group=*/-1, frameql, trace)
                    : Result<QueryOutput>(prepared.status());

  // Flight-record the completed query (observe-only; outputs unchanged).
  obs::FlightRecord record;
  record.correlation_id = prepared.ok()
                              ? prepared.value().correlation_id
                              : obs::FlightRecorder::NextCorrelationId();
  record.query = frameql;
  record.accuracy_tier = "full";
  record.ok = result.ok();
  if (result.ok()) {
    record.plan = PlanKindName(result.value().plan);
    record.cost_seconds = result.value().cost.TotalSeconds();
    record.trace = result.value().report != nullptr
                       ? result.value().report->trace
                       : trace;
  } else {
    record.error = result.status().ToString();
    record.trace = trace;
  }
  record.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  obs::FlightRecorder::Global().Record(std::move(record));
  return result;
}

Result<QueryOutput> BlazeItEngine::ExecutePrepared(
    const PreparedQuery& prepared, SweepCacheView* view, int64_t batch_group,
    const std::string& frameql, std::shared_ptr<obs::QueryTrace> trace) {
  StreamData* stream = prepared.stream;
  const AnalyzedQuery& query = prepared.query;
  std::shared_ptr<obs::ExecutionReport> report;
  std::optional<SweepCacheView> standalone;
  if (options_.collect_reports) {
    report = std::make_shared<obs::ExecutionReport>();
    report->query = frameql;
    report->batch_group = batch_group;
    if (trace == nullptr) trace = std::make_shared<obs::QueryTrace>(frameql);
    // A standalone query counts its traffic through a view over the cache
    // the executors would have used (possibly none). Output-neutral: a
    // cache hit is bit-identical to recomputation and the view only
    // observes, so results and simulated costs are unchanged.
    if (view == nullptr) {
      view = &standalone.emplace(/*shared=*/nullptr, stream->artifact_cache);
    }
  }

  PlanChoice plan;
  {
    obs::TraceSpan span(trace.get(), "optimize");
    plan = ChoosePlan(query, stream);
  }
  BLAZEIT_LOG(kDebug).Field("cid", prepared.correlation_id)
      << "plan: " << PlanKindName(plan.kind) << " — " << plan.rationale;

  QueryOutput out;
  out.kind = query.kind;
  out.plan = plan.kind;
  out.plan_description = plan.rationale;

  const std::string execute_label =
      std::string("execute:") + PlanKindName(plan.kind);
  obs::TraceSpan execute_span(trace.get(), execute_label.c_str());

  Result<QueryOutput> executed = [&]() -> Result<QueryOutput> {
    switch (query.kind) {
      case QueryKind::kAggregate: {
        BLAZEIT_ASSIGN_OR_RETURN(
            FrameWindow window,
            ResolveFrameWindow(query, stream->config.fps,
                               stream->test_day->num_frames()));
        AggregationExecutor executor(stream, options_.aggregate, view,
                                     trace.get());
        BLAZEIT_ASSIGN_OR_RETURN(
            AggregateResult agg,
            executor.Run(query.agg_class, query.error, query.confidence,
                         window));
        out.scalar = agg.estimate;
        if (query.scale_to_total) {
          // COUNT(*) scales the frame-averaged estimate by the number of
          // frames the query actually ranges over.
          out.scalar *= static_cast<double>(window.end - window.begin);
        }
        out.cost = agg.cost;
        return out;
      }
      case QueryKind::kCountDistinct:
        return ExecuteCountDistinct(stream, query, trace.get(),
                                    report.get());
      case QueryKind::kScrubbing: {
        BLAZEIT_ASSIGN_OR_RETURN(
            FrameWindow window,
            ResolveFrameWindow(query, stream->config.fps,
                               stream->test_day->num_frames()));
        ScrubOptions scrub_options = options_.scrub;
        scrub_options.use_store_index |= options_.use_store_index;
        ScrubbingExecutor executor(stream, scrub_options, view, trace.get());
        BLAZEIT_ASSIGN_OR_RETURN(
            ScrubResult scrub,
            executor.Run(query.requirements, query.limit, query.gap,
                         window));
        out.frames = scrub.frames;
        out.cost = scrub.cost;
        if (report != nullptr) report->sketch = scrub.sketch;
        return out;
      }
      case QueryKind::kSelection: {
        SelectionExecutor executor(stream, &udfs_, options_.selection,
                                   view, trace.get());
        BLAZEIT_ASSIGN_OR_RETURN(SelectionResult sel, executor.Run(query));
        out.rows = std::move(sel.rows);
        for (const SelectionEvent& event : sel.events) {
          out.frames.push_back(event.first_frame);
        }
        out.cost = sel.cost;
        out.plan_description += " | " + sel.plan;
        return out;
      }
      case QueryKind::kBinarySelect:
        return ExecuteBinarySelect(stream, query, view, trace.get());
      case QueryKind::kExhaustive:
        return ExecuteFullScan(stream, query, trace.get(), report.get());
    }
    return Status::Internal("unhandled query kind");
  }();
  if (!executed.ok()) return executed;

  QueryOutput result = std::move(executed).value();
  if (report != nullptr) {
    report->plan = PlanKindName(result.plan);
    report->plan_description = result.plan_description;
    report->cost = result.cost;
    report->cache = view->stats();
    report->trace = trace;
    result.report = std::move(report);
  }
  return result;
}

Result<QueryOutput> BlazeItEngine::ExecuteCountDistinct(
    StreamData* stream, const AnalyzedQuery& query, obs::QueryTrace* trace,
    obs::ExecutionReport* report) {
  // Entity resolution requires consecutive-frame detections, so this runs
  // the detector over the query's full time range (the paper does not
  // optimize distinct counts; they are supported for completeness of
  // FrameQL).
  QueryOutput out;
  out.kind = query.kind;
  out.plan = PlanKind::kTrackerCountDistinct;
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream->config.fps,
                         stream->test_day->num_frames()));
  // Sketch consultation: a segment with no detections of the counted
  // class contributes only empty tracker updates — the first one closes
  // every open track without minting an id, the rest are no-ops. Skipping
  // the whole gap and issuing one empty Update is therefore bit-identical
  // to walking it, while the skipped frames charge no detector calls.
  SketchProbe probe;
  probe.requirements = {{query.agg_class, 1}};
  const std::vector<SketchIndex::FrameRange> ranges = SketchCandidates(
      *stream, options_.use_store_index, window, probe,
      report != nullptr ? &report->sketch : nullptr);
  obs::TraceSpan span(trace, "track", &out.cost);
  IouTracker tracker;
  int64_t distinct = 0;
  int64_t walked_to = window.begin;
  for (const auto& range : ranges) {
    if (range.begin > walked_to) tracker.Update({});  // skipped gap
    for (int64_t t = range.begin; t < range.end; ++t) {
      out.cost.ChargeDetection();
      std::vector<Detection> dets = FilterClass(
          stream->test_labels->DetectionsAt(t), query.agg_class,
          /*score_threshold=*/0.0);  // already thresholded by the labeled set
      int64_t before = tracker.next_track_id();
      tracker.Update(dets);
      distinct += tracker.next_track_id() - before;
    }
    walked_to = range.end;
  }
  out.scalar = static_cast<double>(distinct);
  return out;
}

Result<QueryOutput> BlazeItEngine::ExecuteBinarySelect(
    StreamData* stream, const AnalyzedQuery& query,
    ArtifactCache* sweep_cache, obs::QueryTrace* trace) {
  // NoScope replication: a specialized NN filters frames; the detector
  // verifies everything the NN lets through, so false positives are
  // eliminated and the false-negative rate is controlled by calibrating
  // the NN threshold on the held-out day.
  QueryOutput out;
  out.kind = query.kind;
  out.plan = PlanKind::kBinaryDetection;
  const SyntheticVideo& test = *stream->test_day;
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream->config.fps, test.num_frames()));
  // Range entirely past the recorded day: zero frames match, and charging
  // NN training to discover that would be inconsistent with the free
  // empty results of the other executors.
  if (window.end <= window.begin) return out;

  const std::vector<int>& train_counts =
      stream->train_labels->Counts(query.sel_class);
  int64_t positives = 0;
  for (int c : train_counts) {
    if (c > 0) ++positives;
  }
  const std::vector<int>& test_counts =
      stream->test_labels->Counts(query.sel_class);
  if (positives == 0) {
    // Cannot specialize: verify every frame in range.
    obs::TraceSpan span(trace, "verify", &out.cost);
    for (int64_t t = window.begin; t < window.end; ++t) {
      out.cost.ChargeDetection();
      if (test_counts[static_cast<size_t>(t)] > 0) out.frames.push_back(t);
    }
    return out;
  }

  SpecializedNNConfig nn_config = options_.selection.nn;
  nn_config.train.seed = HashCombine(options_.selection.seed, 0xb1de);
  nn_config.cache =
      sweep_cache != nullptr ? sweep_cache : stream->artifact_cache;
  Result<SpecializedNN> trained = [&] {
    obs::TraceSpan span(trace, "train", &out.cost);
    return SpecializedNN::Train(*stream->train_day, {train_counts},
                                nn_config);
  }();
  BLAZEIT_RETURN_NOT_OK(trained.status());
  out.cost.ChargeTraining(trained.value().trained_frames());
  const SpecializedNN& nn = trained.value();

  double threshold = 0.0;
  {
    obs::TraceSpan span(trace, "calibrate", &out.cost);
    const SyntheticVideo& held = *stream->held_out_day;
    std::vector<char> positive_mask;
    positive_mask.reserve(static_cast<size_t>(held.num_frames()));
    const std::vector<int>& held_counts =
        stream->held_out_labels->Counts(query.sel_class);
    for (int c : held_counts) positive_mask.push_back(c > 0 ? 1 : 0);
    std::vector<int64_t> held_frames(static_cast<size_t>(held.num_frames()));
    std::iota(held_frames.begin(), held_frames.end(), int64_t{0});
    auto calib = CalibrateNoFalseNegatives(
        PresenceScores(nn, held, held_frames), positive_mask);
    BLAZEIT_RETURN_NOT_OK(calib.status());
    threshold = calib.value().threshold;
    out.cost.ChargeSpecializedNN(held.num_frames());
  }

  const int64_t n_window = window.end - window.begin;
  std::vector<int64_t> test_frames(static_cast<size_t>(n_window));
  std::iota(test_frames.begin(), test_frames.end(), window.begin);
  std::vector<double> scores;
  {
    obs::TraceSpan span(trace, "sweep", &out.cost);
    scores = PresenceScores(nn, test, test_frames);
    out.cost.ChargeSpecializedNN(n_window);
  }
  obs::TraceSpan span(trace, "verify", &out.cost);
  for (int64_t i = 0; i < n_window; ++i) {
    const int64_t t = window.begin + i;
    if (scores[static_cast<size_t>(i)] < threshold) continue;
    out.cost.ChargeDetection();
    if (test_counts[static_cast<size_t>(t)] > 0) out.frames.push_back(t);
  }
  return out;
}

Result<QueryOutput> BlazeItEngine::ExecuteFullScan(
    StreamData* stream, const AnalyzedQuery& query, obs::QueryTrace* trace,
    obs::ExecutionReport* report) {
  QueryOutput out;
  out.kind = query.kind;
  out.plan = PlanKind::kFullScan;
  // The scan is exhaustive, not unconditional: every analyzed predicate
  // still restricts the result (Prepare has refused the content UDFs this
  // plan does not evaluate).
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream->config.fps,
                         stream->test_day->num_frames()));
  const bool filter_detections =
      query.sel_class >= 0 || query.has_roi || query.min_area_px > 0;
  // Sketch-candidate subranges (the whole window when unindexed): a
  // pruned segment provably contains no matching frame, so skipping it
  // removes only detector charges, never results.
  const std::vector<SketchIndex::FrameRange> ranges = SketchCandidates(
      *stream, options_.use_store_index, window, ProbeForQuery(*stream, query),
      report != nullptr ? &report->sketch : nullptr);
  obs::TraceSpan span(trace, "scan", &out.cost);
  for (const auto& range : ranges) {
    for (int64_t t = range.begin; t < range.end; ++t) {
      out.cost.ChargeDetection();
      // HAVING SUM(class=...) >= N requirements (reachable here when the
      // query has no LIMIT to make it a scrubbing plan).
      if (!query.requirements.empty() &&
          !SatisfiesRequirements(*stream, t, query.requirements)) {
        continue;
      }
      bool any;
      if (filter_detections) {
        any = false;
        for (const Detection& det : stream->test_labels->DetectionsAt(t)) {
          if (query.sel_class >= 0 && det.class_id != query.sel_class) {
            continue;
          }
          if (query.has_roi &&
              !query.roi.Contains(det.rect.CenterX(), det.rect.CenterY())) {
            continue;
          }
          if (query.min_area_px > 0 &&
              PixelArea(det.rect, stream->config.width,
                        stream->config.height) < query.min_area_px) {
            continue;
          }
          any = true;
          break;
        }
      } else if (!query.requirements.empty()) {
        any = true;  // the requirements check above is the whole predicate
      } else {
        any = !stream->test_labels->DetectionsAt(t).empty();
      }
      if (any) out.frames.push_back(t);
    }
  }
  return out;
}

}  // namespace blazeit
