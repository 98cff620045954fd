// Reproduces Figure 5: sample complexity of naive AQP vs AQP with control
// variates (specialized NN as the auxiliary), for absolute error targets
// 0.01..0.05 and 0.1, averaged over 100 runs per level, on all six streams.
#include <cstdio>
#include <numeric>

#include "bench_common.h"
#include "core/aggregation.h"
#include "stats/control_variates.h"
#include "stats/sampler.h"

int main() {
  using namespace blazeit;
  using namespace blazeit::bench;
  VideoCatalog catalog = BuildCatalog();
  PrintHeader(
      "Figure 5: sample complexity, naive AQP vs control variates "
      "(100 runs per error level, 95% confidence)");

  struct Row {
    const char* stream;
    int class_id;
  };
  const Row rows[] = {{"taipei", kCar},      {"night-street", kCar},
                      {"rialto", kBoat},     {"grand-canal", kBoat},
                      {"amsterdam", kCar},   {"archie", kCar}};
  const double kErrors[] = {0.01, 0.02, 0.03, 0.04, 0.05, 0.1};
  const int kRuns = 100;

  for (const Row& row : rows) {
    StreamData* s = catalog.GetStream(row.stream).value();
    // Train the counting NN once; sampling replays its cached outputs (the
    // paper pre-computed detections the same way).
    AggregateOptions opt;
    opt.allow_query_rewrite = false;  // force the sampling path
    AggregationExecutor ex(s, opt);
    auto warmup = ex.Run(row.class_id, 0.1, 0.95);
    if (!warmup.ok()) {
      std::printf("%s: %s\n", row.stream, warmup.status().ToString().c_str());
      continue;
    }
    const std::vector<float>& proxy_counts = ex.nn_counts();
    const std::vector<int>& truth = s->test_labels->Counts(row.class_id);
    const int64_t n = s->test_day->num_frames();
    // Exact proxy moments.
    const ControlVariate cv = MakeControlVariate(n, [&](int64_t f) {
      return static_cast<double>(proxy_counts[static_cast<size_t>(f)]);
    });
    double value_range = s->train_labels->MaxCount(row.class_id) + 1.0;

    std::printf("\n%s (%s), NN/detector correlation %.3f:\n", row.stream,
                ClassName(row.class_id), warmup.value().nn_correlation);
    std::printf("  %-8s %12s %14s %10s\n", "error", "naive-AQP",
                "control-var", "reduction");
    for (double err : kErrors) {
      double naive_sum = 0, cv_sum = 0;
      for (int run = 0; run < kRuns; ++run) {
        SamplingConfig cfg;
        cfg.error = err;
        cfg.value_range = value_range;
        cfg.seed = 10000 + static_cast<uint64_t>(run);
        FrameOracle oracle = [&](int64_t f) {
          return static_cast<double>(truth[static_cast<size_t>(f)]);
        };
        naive_sum += static_cast<double>(
            AdaptiveSample(n, oracle, cfg).value().samples_used);
        cv_sum += static_cast<double>(
            ControlVariateSample(n, oracle, cv, cfg).value().samples_used);
      }
      std::printf("  %-8.2f %12.0f %14.0f %9.2fx\n", err, naive_sum / kRuns,
                  cv_sum / kRuns, naive_sum / std::max(1.0, cv_sum));
    }
  }
  std::printf(
      "\nAs in the paper, the reduction factor grows with the correlation "
      "between the specialized NN and the detector counts.\n");
  return 0;
}
