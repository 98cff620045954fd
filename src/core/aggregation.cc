#include "core/aggregation.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"
#include "stats/control_variates.h"
#include "stats/online_stats.h"
#include "stats/sampler.h"
#include "util/string_util.h"

namespace blazeit {

namespace {

/// Minimum number of positive training frames for specialization (the
/// "sufficient training data" test of Algorithm 1).
constexpr int64_t kMinPositiveExamples = 50;
/// Resamples of the held-out error bootstrap.
constexpr int kBootstrapResamples = 200;

}  // namespace

const char* AggregateMethodName(AggregateMethod method) {
  switch (method) {
    case AggregateMethod::kQueryRewrite:
      return "query-rewrite";
    case AggregateMethod::kControlVariates:
      return "control-variates";
    case AggregateMethod::kPlainAqp:
      return "plain-aqp";
  }
  return "?";
}

AggregationExecutor::AggregationExecutor(StreamData* stream,
                                         AggregateOptions options,
                                         ArtifactCache* sweep_cache,
                                         obs::QueryTrace* trace)
    : stream_(stream),
      cache_(sweep_cache != nullptr ? sweep_cache : stream->artifact_cache),
      options_(options),
      trace_(trace) {}

Result<AggregateResult> AggregationExecutor::Run(int class_id, double error,
                                                 double confidence,
                                                 FrameWindow window) {
  if (error <= 0 || confidence <= 0 || confidence >= 1) {
    return Status::InvalidArgument(
        "aggregation requires error > 0 and confidence in (0,1)");
  }
  window = ClampFrameWindow(window, stream_->test_day->num_frames());
  nn_counts_.clear();
  nn_bootstrap_.reset();
  if (window.end <= window.begin) {
    // Range entirely past the recorded day: zero frames satisfy the
    // predicate, so the count over the range is exactly 0 — consistent
    // with the empty results the other executors return, and free.
    AggregateResult empty;
    empty.plan = "empty time range: no frame to count";
    return empty;
  }
  CostMeter meter;

  // --- sufficiency of training data (Algorithm 1 precondition) ---
  const std::vector<int>& train_counts =
      stream_->train_labels->Counts(class_id);
  int64_t positives = 0;
  for (int c : train_counts) {
    if (c > 0) ++positives;
  }
  if (positives < kMinPositiveExamples) {
    BLAZEIT_ASSIGN_OR_RETURN(
        AggregateResult aqp,
        RunPlainAqp(class_id, error, confidence, window, meter));
    aqp.plan = StrFormat(
        "aggregate with error tolerance %.3g; %lld positive training frames "
        "(under %lld) -> plain AQP",
        error, static_cast<long long>(positives),
        static_cast<long long>(kMinPositiveExamples));
    return aqp;
  }

  // --- train the specialized counting NN on the labeled day ---
  SpecializedNNConfig nn_config = options_.nn;
  nn_config.train.seed = HashCombine(options_.seed, 0xaaaa);
  nn_config.cache = cache_;
  Result<SpecializedNN> trained = [&] {
    obs::TraceSpan span(trace_, "train", &meter);
    return SpecializedNN::Train(*stream_->train_day, {train_counts},
                                nn_config);
  }();
  BLAZEIT_RETURN_NOT_OK(trained.status());
  SpecializedNN nn = std::move(trained).value();
  meter.ChargeTraining(nn.trained_frames());

  // --- estimate the NN's error on the held-out day via the bootstrap ---
  {
    obs::TraceSpan span(trace_, "holdout-bootstrap", &meter);
    const SyntheticVideo& held_out = *stream_->held_out_day;
    const std::vector<int>& held_truth =
        stream_->held_out_labels->Counts(class_id);
    std::vector<int64_t> held_frames(
        static_cast<size_t>(held_out.num_frames()));
    std::iota(held_frames.begin(), held_frames.end(), 0);
    std::vector<float> held_pred =
        nn.ExpectedCountsForFrames(held_out, held_frames);
    std::vector<double> predicted(held_pred.begin(), held_pred.end());
    std::vector<double> truth(held_truth.begin(), held_truth.end());
    meter.ChargeSpecializedNN(held_out.num_frames());
    meter.ChargeThresholding(held_out.num_frames());
    auto boot = BootstrapAbsError(predicted, truth, confidence,
                                  kBootstrapResamples,
                                  HashCombine(options_.seed, 0xbbbb));
    BLAZEIT_RETURN_NOT_OK(boot.status());
    nn_bootstrap_ = boot.value();
  }

  // --- run the NN over the unseen test day (both paths need it) ---
  // The full-day NN sweeps (here and on the held-out day above) are the
  // aggregation scan's cost; they shard across the exec pool inside
  // ProbsForFrames. Every reduction *over* the resulting counts below
  // (OnlineStats means, the bootstrap, OnlineCovariance) deliberately
  // stays a serial fixed-order chain — floating-point accumulation order
  // is part of the output contract, so only the per-frame map work is
  // parallel, never the folds.
  const SyntheticVideo& test = *stream_->test_day;
  const int64_t n_window = window.end - window.begin;
  std::vector<int64_t> test_frames(static_cast<size_t>(n_window));
  std::iota(test_frames.begin(), test_frames.end(), window.begin);
  {
    obs::TraceSpan span(trace_, "test-sweep", &meter);
    nn_counts_ = nn.ExpectedCountsForFrames(test, test_frames);
    meter.ChargeSpecializedNN(n_window);
  }

  AggregateResult result;
  result.nn_error_bound = nn_bootstrap_->error_quantile;
  result.plan = StrFormat(
      "aggregate with error tolerance %.3g; %lld positive training frames "
      "-> specialized NN (Algorithm 1); held-out error bound %.3g",
      error, static_cast<long long>(positives), result.nn_error_bound);

  // --- Algorithm 1 branch: rewrite if the NN is provably accurate ---
  if (options_.allow_query_rewrite && nn_bootstrap_->error_quantile < error) {
    obs::TraceSpan span(trace_, "estimate:query-rewrite", &meter);
    OnlineStats stats;
    for (float v : nn_counts_) stats.Add(v);
    result.estimate = stats.Mean();
    result.method = AggregateMethod::kQueryRewrite;
    result.plan += " < tolerance -> query-rewrite";
    result.cost = meter;
    result.detection_calls = meter.detection_calls();
    return result;
  }

  // --- control variates: NN as the cheap correlated auxiliary ---
  obs::TraceSpan estimate_span(trace_, "estimate:control-variates", &meter);
  // Sampler indices are window-relative: index i means test frame
  // window.begin + i, so the proxy/oracle pair stays aligned with
  // nn_counts_ (which holds only window frames).
  const std::vector<int>& test_truth = stream_->test_labels->Counts(class_id);
  const ControlVariate cv = MakeControlVariate(n_window, [this](int64_t frame) {
    return static_cast<double>(nn_counts_[static_cast<size_t>(frame)]);
  });
  CostMeter* meter_ptr = &meter;
  const int64_t window_begin = window.begin;
  FrameOracle oracle = [&test_truth, meter_ptr, window_begin](int64_t frame) {
    meter_ptr->ChargeDetection();
    return static_cast<double>(
        test_truth[static_cast<size_t>(window_begin + frame)]);
  };
  SamplingConfig sampling;
  sampling.error = error;
  sampling.confidence = confidence;
  sampling.value_range =
      static_cast<double>(stream_->train_labels->MaxCount(class_id)) + 1.0;
  sampling.seed = HashCombine(options_.seed, 0xcccc);
  auto estimate = ControlVariateSample(n_window, oracle, cv, sampling);
  BLAZEIT_RETURN_NOT_OK(estimate.status());

  // Correlation over the window (diagnostic, used by Figure 5 analysis).
  OnlineCovariance corr;
  for (int64_t t = window.begin; t < window.end; ++t) {
    corr.Add(static_cast<double>(test_truth[static_cast<size_t>(t)]),
             static_cast<double>(
                 nn_counts_[static_cast<size_t>(t - window.begin)]));
  }

  result.estimate = estimate.value().estimate;
  result.method = AggregateMethod::kControlVariates;
  result.plan += options_.allow_query_rewrite
                     ? " >= tolerance -> control-variates"
                     : " (query rewrite disabled) -> control-variates";
  result.samples_used = estimate.value().samples_used;
  result.nn_correlation = corr.Correlation();
  result.cost = meter;
  result.detection_calls = meter.detection_calls();
  return result;
}

Result<AggregateResult> AggregationExecutor::RunPlainAqp(int class_id,
                                                         double error,
                                                         double confidence,
                                                         FrameWindow window,
                                                         CostMeter meter) {
  obs::TraceSpan span(trace_, "estimate:plain-aqp", &meter);
  const std::vector<int>& test_truth = stream_->test_labels->Counts(class_id);
  CostMeter* meter_ptr = &meter;
  const int64_t window_begin = window.begin;
  FrameOracle oracle = [&test_truth, meter_ptr, window_begin](int64_t frame) {
    meter_ptr->ChargeDetection();
    return static_cast<double>(
        test_truth[static_cast<size_t>(window_begin + frame)]);
  };
  SamplingConfig sampling;
  sampling.error = error;
  sampling.confidence = confidence;
  sampling.value_range =
      static_cast<double>(stream_->train_labels->MaxCount(class_id)) + 1.0;
  sampling.seed = HashCombine(options_.seed, 0xdddd);
  auto estimate =
      AdaptiveSample(window.end - window.begin, oracle, sampling);
  BLAZEIT_RETURN_NOT_OK(estimate.status());

  AggregateResult result;
  result.estimate = estimate.value().estimate;
  result.method = AggregateMethod::kPlainAqp;
  result.samples_used = estimate.value().samples_used;
  result.cost = meter;
  result.detection_calls = meter.detection_calls();
  return result;
}

}  // namespace blazeit
