#ifndef BLAZEIT_CORE_AGGREGATION_H_
#define BLAZEIT_CORE_AGGREGATION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "frameql/analyzer.h"
#include "nn/specialized_nn.h"
#include "sim/cost_model.h"
#include "stats/bootstrap.h"
#include "util/status.h"

namespace blazeit {

namespace obs {
class QueryTrace;  // obs/trace.h
}

/// Which path Algorithm 1 ended up taking.
enum class AggregateMethod {
  kQueryRewrite,     // specialized NN accurate enough; ran it alone
  kControlVariates,  // NN as control variate + detector sampling
  kPlainAqp,         // insufficient training data or an empty window:
                     // naive AQP
};

const char* AggregateMethodName(AggregateMethod method);

struct AggregateOptions {
  SpecializedNNConfig nn;
  /// Ablation knob for the Section 10.2 comparisons (Figure 5 forces the
  /// sampling path with it).
  bool allow_query_rewrite = true;
  uint64_t seed = 1;
};

struct AggregateResult {
  /// Frame-averaged count estimate (FCOUNT semantics).
  double estimate = 0.0;
  AggregateMethod method = AggregateMethod::kPlainAqp;
  /// Why Algorithm 1 took `method`: the positive training frames and, when
  /// a NN was trained, its held-out error bound against the tolerance.
  std::string plan;
  /// Simulated cost of the run (the paper's runtime).
  CostMeter cost;
  /// Object-detection calls consumed (sample complexity).
  int64_t detection_calls = 0;
  /// Bootstrap error bound of the specialized NN on the held-out day (only
  /// meaningful when a NN was trained).
  double nn_error_bound = 0.0;
  /// Pearson correlation between NN and detector counts over the sampled
  /// frames (control-variates path).
  double nn_correlation = 0.0;
  int64_t samples_used = 0;
};

/// Executes aggregation queries per Algorithm 1: train a specialized
/// counting NN if the training data allows; rewrite the query onto the NN
/// when its held-out bootstrap error is inside the user's tolerance;
/// otherwise use the NN as a control variate for adaptive sampling; with
/// no usable NN, fall back to plain AQP.
class AggregationExecutor {
 public:
  /// `stream` must outlive the executor. `sweep_cache` overrides the
  /// stream's artifact cache (the admission queue hands each query's
  /// SweepCacheView in here so a shared-plan group shares NN sweeps);
  /// nullptr keeps the stream's persistent cache. `trace` (nullable)
  /// receives train/sweep/estimate stage spans.
  AggregationExecutor(StreamData* stream, AggregateOptions options = {},
                      ArtifactCache* sweep_cache = nullptr,
                      obs::QueryTrace* trace = nullptr);

  /// Runs FCOUNT(class) ERROR WITHIN `error` AT CONFIDENCE `confidence`
  /// over the test-day frames in `window` (default: the whole day). The
  /// estimate is the frame-averaged count *within the window*; sampling,
  /// the NN sweep, and the control-variate correlation all restrict to it.
  Result<AggregateResult> Run(int class_id, double error, double confidence,
                              FrameWindow window = FrameWindow{});

  /// Per-frame expected counts over the last Run's window, from the NN it
  /// trained (empty if the plain-AQP path was taken); used by benchmarks.
  const std::vector<float>& nn_counts() const { return nn_counts_; }

  /// The held-out bootstrap result from the last Run, if a NN was trained.
  const std::optional<BootstrapResult>& nn_bootstrap() const {
    return nn_bootstrap_;
  }

 private:
  Result<AggregateResult> RunPlainAqp(int class_id, double error,
                                      double confidence, FrameWindow window,
                                      CostMeter meter);

  StreamData* stream_;
  ArtifactCache* cache_;
  AggregateOptions options_;
  obs::QueryTrace* trace_;
  std::vector<float> nn_counts_;
  std::optional<BootstrapResult> nn_bootstrap_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_AGGREGATION_H_
