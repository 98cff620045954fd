// Reproduces Figure 10: end-to-end runtime of the content-based selection
// query of Figure 3c (red buses, large, persistent, in the transit lane)
// under Naive / NoScope-oracle / BlazeIt, with event-level recall against
// the scene ground truth (all BlazeIt errors are false negatives).
#include <cstdio>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/selection.h"
#include "frameql/parser.h"

int main() {
  using namespace blazeit;
  using namespace blazeit::bench;
  VideoCatalog catalog = BuildCatalog({"taipei"});
  StreamData* s = catalog.GetStream("taipei").value();
  UdfRegistry udfs;
  PrintHeader(
      "Figure 10: content-based selection of red buses (Figure 3c "
      "analogue; simulated seconds)");

  // Figure 3c with thresholds rescaled to this scene: redness is
  // UdfRegistry::Redness, in [0, 1], and a mean-sized taipei bus covers
  // 0.30 x 0.20 of the 1280x720 frame (about 55k px), so area > 20000
  // keeps all but the smallest buses.
  const char* kQuery =
      "SELECT * FROM taipei WHERE class = 'bus' "
      "AND redness(content) >= 0.25 AND area(mask) > 20000 "
      "AND xmin(mask) >= 0.4 AND ymin(mask) >= 0.5 "
      "GROUP BY trackid HAVING COUNT(*) > 15";
  std::printf("query: %s\n\n", kQuery);
  auto parsed = ParseFrameQL(kQuery);
  auto query = AnalyzeQuery(parsed.value(), s->config).value();

  auto naive = NaiveSelection(s, &udfs, query).value();
  auto oracle = NoScopeOracleSelection(s, &udfs, query).value();
  SelectionExecutor ex(s, &udfs, {});
  auto r = ex.Run(query).value();
  auto gt = GroundTruthSelectionEvents(*s->test_day, query, udfs);

  auto recall = [&](const SelectionResult& res) {
    if (gt.empty()) return 1.0;
    int64_t hit = 0;
    for (const auto& g : gt) {
      for (const auto& e : res.events) {
        if (e.first_frame <= g.last_frame + 14 &&
            e.last_frame >= g.first_frame - 14) {
          ++hit;
          break;
        }
      }
    }
    return static_cast<double>(hit) / static_cast<double>(gt.size());
  };

  std::printf("%-20s %12s %10s %10s %8s\n", "Method", "Seconds",
              "DetFrames", "Recall", "Speedup");
  std::printf("%-20s %11.0fs %10lld %9.0f%% %8s\n", "Naive",
              naive.cost.TotalSeconds(),
              static_cast<long long>(naive.frames_detected),
              recall(naive) * 100, "1.0x");
  std::printf("%-20s %11.0fs %10lld %9.0f%% %8s\n", "NoScope (oracle)",
              oracle.cost.TotalSeconds(),
              static_cast<long long>(oracle.frames_detected),
              recall(naive) * 100,
              Speedup(naive.cost.TotalSeconds(), oracle.cost.TotalSeconds())
                  .c_str());
  std::printf("%-20s %11.0fs %10lld %9.0f%% %8s\n", "BlazeIt",
              r.cost.TotalSeconds(),
              static_cast<long long>(r.frames_detected), recall(r) * 100,
              Speedup(naive.cost.TotalSeconds(), r.cost.TotalSeconds())
                  .c_str());
  std::printf("\nplan: %s\n", r.plan.c_str());
  std::printf("ground-truth events: %zu; BlazeIt events: %zu; rows: %zu\n",
              gt.size(), r.events.size(), r.rows.size());
  return 0;
}
