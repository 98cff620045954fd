#include "core/baselines.h"

#include <algorithm>

#include "core/scrubbing.h"
#include "stats/sampler.h"
#include "util/random.h"

namespace blazeit {

namespace {

bool OraclePresence(StreamData* stream, int64_t frame,
                    const std::vector<ClassCountRequirement>& reqs) {
  for (const ClassCountRequirement& req : reqs) {
    if (stream->test_labels->Counts(req.class_id)[static_cast<size_t>(
            frame)] < 1) {
      return false;
    }
  }
  return true;
}

}  // namespace

BaselineResult NaiveAggregate(StreamData* stream, int class_id) {
  BaselineResult out;
  const std::vector<int>& counts = stream->test_labels->Counts(class_id);
  double sum = 0.0;
  for (int c : counts) {
    out.cost.ChargeDetection();
    sum += c;
  }
  out.estimate = counts.empty() ? 0.0 : sum / static_cast<double>(counts.size());
  out.detection_calls = out.cost.detection_calls();
  return out;
}

BaselineResult NoScopeOracleAggregate(StreamData* stream, int class_id) {
  BaselineResult out;
  const std::vector<int>& counts = stream->test_labels->Counts(class_id);
  double sum = 0.0;
  for (int c : counts) {
    if (c > 0) {
      // The oracle is free; identifying *how many* objects needs detection.
      out.cost.ChargeDetection();
      sum += c;
    }
  }
  out.estimate = counts.empty() ? 0.0 : sum / static_cast<double>(counts.size());
  out.detection_calls = out.cost.detection_calls();
  return out;
}

Result<AqpResult> NaiveAqpAggregate(StreamData* stream, int class_id,
                                    double error, double confidence,
                                    uint64_t seed) {
  const std::vector<int>& counts = stream->test_labels->Counts(class_id);
  AqpResult out;
  CostMeter* meter = &out.cost;
  FrameOracle oracle = [&counts, meter](int64_t frame) {
    meter->ChargeDetection();
    return static_cast<double>(counts[static_cast<size_t>(frame)]);
  };
  SamplingConfig config;
  config.error = error;
  config.confidence = confidence;
  config.value_range =
      static_cast<double>(stream->train_labels->MaxCount(class_id)) + 1.0;
  config.seed = seed;
  auto estimate = AdaptiveSample(
      static_cast<int64_t>(counts.size()), oracle, config);
  BLAZEIT_RETURN_NOT_OK(estimate.status());
  out.estimate = estimate.value().estimate;
  out.samples_used = estimate.value().samples_used;
  return out;
}

namespace {

ScrubBaselineResult ScanScrub(StreamData* stream,
                              const std::vector<ClassCountRequirement>& reqs,
                              int64_t limit, int64_t gap,
                              bool use_presence_oracle) {
  ScrubBaselineResult out;
  int64_t last_accepted = -1;
  bool limit_reached = false;
  for (int64_t t = 0; t < stream->test_day->num_frames(); ++t) {
    if (static_cast<int64_t>(out.frames.size()) >= limit) {
      limit_reached = true;
      break;
    }
    if (last_accepted >= 0 && gap > 0 && t - last_accepted < gap) continue;
    if (use_presence_oracle && !OraclePresence(stream, t, reqs)) continue;
    out.cost.ChargeDetection();
    if (SatisfiesRequirements(*stream, t, reqs)) {
      out.frames.push_back(t);
      last_accepted = t;
    }
  }
  out.limit_satisfied = static_cast<int64_t>(out.frames.size()) >= limit;
  out.scan_exhausted = !limit_reached;
  out.detection_calls = out.cost.detection_calls();
  return out;
}

}  // namespace

ScrubBaselineResult NaiveScrub(StreamData* stream,
                               const std::vector<ClassCountRequirement>& reqs,
                               int64_t limit, int64_t gap) {
  return ScanScrub(stream, reqs, limit, gap, /*use_presence_oracle=*/false);
}

ScrubBaselineResult NoScopeOracleScrub(
    StreamData* stream, const std::vector<ClassCountRequirement>& reqs,
    int64_t limit, int64_t gap) {
  return ScanScrub(stream, reqs, limit, gap, /*use_presence_oracle=*/true);
}

Result<SelectionResult> NaiveSelection(StreamData* stream,
                                       const UdfRegistry* udfs,
                                       const AnalyzedQuery& query) {
  SelectionOptions options;
  options.use_label_filter = false;
  options.use_content_filter = false;
  options.use_temporal_filter = false;
  options.use_spatial_filter = false;
  SelectionExecutor executor(stream, udfs, options);
  return executor.Run(query);
}

Result<SelectionResult> NoScopeOracleSelection(StreamData* stream,
                                               const UdfRegistry* udfs,
                                               const AnalyzedQuery& query) {
  // The oracle skips frames with no instance of the class, for free;
  // everything else behaves like the naive plan.
  SelectionOptions options;
  options.use_label_filter = false;
  options.use_content_filter = false;
  options.use_temporal_filter = false;
  options.use_spatial_filter = false;
  SelectionExecutor executor(stream, udfs, options);
  // Run the naive cascade, then rebate the detections the oracle skips.
  auto result = executor.Run(query);
  BLAZEIT_RETURN_NOT_OK(result.status());
  SelectionResult out = std::move(result).value();
  const std::vector<int>& counts =
      stream->test_labels->Counts(query.sel_class);
  int64_t occupied = 0;
  for (int c : counts) {
    if (c > 0) ++occupied;
  }
  CostMeter rebated;
  for (int64_t i = 0; i < occupied; ++i) rebated.ChargeDetection();
  out.cost = rebated;
  out.frames_detected = occupied;
  return out;
}

}  // namespace blazeit
