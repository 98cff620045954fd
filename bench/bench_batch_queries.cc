// BM_BatchedQueries: multi-query batch execution with shared NN sweeps.
// Runs a serving-style batch of same-stream queries twice — serially via
// Execute, then as one admission window of a serve::AdmissionQueue — and
// reports the shared-sweep savings:
// per-query standalone vs batch simulated seconds, how many specialized-NN
// frame inferences and trainings were served from another query's sweep,
// and the wall-clock of both paths. The per-query outputs (answers,
// frames, rows, simulated costs) are bit-identical between the two paths
// (asserted continuously by tests/admission_determinism_test.cc); only the
// batch-level accounting shows the dedup.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/engine.h"
#include "serve/admission_queue.h"

int main() {
  using namespace blazeit;
  using namespace blazeit::bench;
  using Clock = std::chrono::steady_clock;

  // 20-minute test day: big enough that NN sweeps dominate, small enough
  // to run the serial baseline in minutes on one core.
  DayLengths lengths;
  lengths.train = 12000;
  lengths.held_out = 12000;
  lengths.test = 36000;
  VideoCatalog catalog = BuildCatalog({"taipei"}, lengths);
  EngineOptions opt;
  // With BLAZEIT_REPORT_DIR set, attach EXPLAIN-style ExecutionReports and
  // dump one per batched query; reporting only observes, so the simulated
  // costs below are unchanged.
  opt.collect_reports = !ReportDir().empty();
  BlazeItEngine engine(&catalog, opt);
  PrintHeader(
      "BM_BatchedQueries: N same-stream queries, shared specialized-NN "
      "sweeps (simulated seconds)");

  const std::vector<std::string> queries = {
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
      "ERROR WITHIN 0.1 AT CONFIDENCE 95%",
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
      "ERROR WITHIN 0.05 AT CONFIDENCE 95%",
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
      "ERROR WITHIN 0.01 AT CONFIDENCE 95%",
      "SELECT COUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.1",
      "SELECT timestamp FROM taipei GROUP BY timestamp "
      "HAVING SUM(class='car') >= 2 LIMIT 10 GAP 300",
      "SELECT timestamp FROM taipei GROUP BY timestamp "
      "HAVING SUM(class='car') >= 2 LIMIT 25 GAP 100",
      "SELECT * FROM taipei WHERE class = 'bus' "
      "AND redness(content) >= 0.25 AND area(mask) > 20000 "
      "GROUP BY trackid HAVING COUNT(*) > 15",
      "SELECT timestamp FROM taipei WHERE class = 'bus' "
      "FNR WITHIN 0.01 FPR WITHIN 0.01",
  };

  // Serial baseline: one Execute per query, nothing shared.
  auto serial_start = Clock::now();
  double serial_total = 0.0;
  for (const std::string& q : queries) {
    auto out = engine.Execute(q);
    if (!out.ok()) {
      std::fprintf(stderr, "Execute failed: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    serial_total += out.value().cost.TotalSeconds();
  }
  const double serial_wall =
      std::chrono::duration<double>(Clock::now() - serial_start).count();

  // Batched: one window, shared-plan groups, one NN sweep per group.
  serve::ServeOptions serve_options;
  serve_options.window_ticks = 100;  // held until Drain
  serve_options.per_client_quota = 1 << 20;
  serve::AdmissionQueue queue(&engine, serve_options);
  auto batch_start = Clock::now();
  for (const std::string& q : queries) {
    auto ticket = queue.Submit("bench", q);
    if (!ticket.ok()) {
      std::fprintf(stderr, "Submit failed: %s\n",
                   ticket.status().ToString().c_str());
      return 1;
    }
  }
  queue.Drain();
  std::vector<serve::ServeResponse> responses = queue.TakeCompleted();
  const double batch_wall =
      std::chrono::duration<double>(Clock::now() - batch_start).count();
  std::sort(responses.begin(), responses.end(),
            [](const serve::ServeResponse& a, const serve::ServeResponse& b) {
              return a.ticket < b.ticket;
            });
  for (const serve::ServeResponse& resp : responses) {
    if (!resp.output.ok()) {
      std::fprintf(stderr, "batched query failed: %s\n",
                   resp.output.status().ToString().c_str());
      return 1;
    }
  }
  const serve::ServerStats batch = queue.stats();

  std::printf("%-5s %-6s %12s %12s %12s %8s\n", "query", "group",
              "standalone", "batched", "sharedNNfr", "sharedNN");
  int64_t shared_frames = 0, shared_models = 0;
  int64_t nn_frames_charged = 0, trainings_charged = 0;
  double nn_bill_standalone = 0.0, nn_bill_batched = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const serve::BatchQueryStats& qs = responses[i].stats;
    const CostMeter& cost = responses[i].output.value().cost;
    std::printf("%-5zu %-6lld %11.1fs %11.1fs %12lld %8s\n", i,
                static_cast<long long>(qs.group), qs.standalone_seconds,
                qs.batch_seconds,
                static_cast<long long>(qs.shared_nn_frames),
                qs.shared_models > 0 ? "reused" : "trained");
    shared_frames += qs.shared_nn_frames;
    shared_models += qs.shared_models;
    DumpReport("batch_q" + std::to_string(i), responses[i].output.value());
    nn_frames_charged += cost.specialized_nn_calls();
    if (cost.training_frames() > 0) ++trainings_charged;
    const double nn_bill =
        cost.specialized_nn_seconds() + cost.training_seconds();
    nn_bill_standalone += nn_bill;
    // Per-query (standalone - batched) is exactly the NN/filter work the
    // shared sweeps absorbed for this query.
    nn_bill_batched += nn_bill - (qs.standalone_seconds - qs.batch_seconds);
  }
  std::printf(
      "\n%zu queries in %lld shared-plan groups\n"
      "specialized-NN frame inferences: charged %lld, computed %lld "
      "(%lld served by shared sweeps)\n"
      "NN trainings: charged %lld, computed %lld (%lld models reused)\n"
      "simulated NN+training bill: standalone %.1fs -> batched %.1fs "
      "(%s, %.1f%% deduplicated)\n"
      "simulated total: %.1fs standalone -> %.1fs batched\n"
      "wall-clock: serial %.1fs -> batched %.1fs (%s)\n",
      queries.size(), static_cast<long long>(batch.groups),
      static_cast<long long>(nn_frames_charged),
      static_cast<long long>(nn_frames_charged - shared_frames),
      static_cast<long long>(shared_frames),
      static_cast<long long>(trainings_charged),
      static_cast<long long>(trainings_charged - shared_models),
      static_cast<long long>(shared_models), nn_bill_standalone,
      nn_bill_batched, Speedup(nn_bill_standalone, nn_bill_batched).c_str(),
      nn_bill_standalone > 0
          ? 100.0 * (nn_bill_standalone - nn_bill_batched) /
                nn_bill_standalone
          : 0.0,
      serial_total, batch.batch_seconds, serial_wall, batch_wall,
      Speedup(serial_wall, batch_wall).c_str());
  std::printf(
      "(simulated standalone totals are identical serial vs batched by the "
      "determinism contract; wall-clock reflects in-process/NN-store "
      "reuse)\n");
  return 0;
}
