// Determinism contract of the observability layer (slow lane): the
// *stable* metrics a query emits (obs::Stability::kStable — store reads,
// sketch loads, exec run/shard counts, NN batches/frames, persistent-tier
// cache hits) and its trace's span structure are a function of the work
// executed, not of scheduling — so they must be bit-identical at pool
// sizes 1, 2, and 8, and identical between serial Execute and a batched
// admission window. Unstable instruments (which thread claimed a shard, queue
// depths, shared-tier cache races) are exported but excluded via
// MetricsSnapshot::StableOnly().
//
// Also the ExecutionReport acceptance checks: simulated-cost fields
// reconcile bit-exactly with the query's CostMeter, and every plan
// family's Chrome trace JSON is well-formed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/admission_queue.h"
#include "testing/json_util.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

using testutil::JsonValidator;

// One query per report-bearing plan family: exhaustive full scan,
// specialized aggregation, and scrubbing.
const char* kQueries[] = {
    "SELECT * FROM taipei WHERE class = 'bus' AND timestamp >= 1000",
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%",
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 10 GAP 300",
};

class TraceDeterminismTest
    : public testutil::CatalogFixture<TraceDeterminismTest> {
 public:
  static DayLengths Lengths() { return testutil::SmallDays(3000, 3000, 6000); }

 protected:
  static void SetUpTestSuite() {
    CatalogFixture::SetUpTestSuite();
    EngineOptions options = testutil::SmallEngineOptions();
    options.collect_reports = true;
    options.use_store_index = true;
    engine_ = new BlazeItEngine(catalog_, options);
    // Warm-up: one run per query so cold-vs-warm store effects (training
    // a NN vs hitting its cached weights moves stable counters like
    // nn.train_batches) are spent before any measured run.
    for (const char* q : kQueries) {
      auto out = engine_->Execute(q);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
    }
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    CatalogFixture::TearDownTestSuite();
  }
  void TearDown() override {
    exec::ThreadPool::Instance().Reconfigure(
        exec::ThreadPool::ThreadsFromEnv());
  }

  struct Captured {
    QueryOutput out;
    /// Stable-only delta of the global registry over the run, as text.
    std::string stable_metrics;
    /// Span names + nesting of the run's trace.
    std::string structure;
  };

  /// Executes `frameql` and captures output, stable metric deltas, and
  /// trace structure. Asserts the run succeeded and produced a report.
  void RunOnce(const std::string& frameql, Captured* cap) {
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    auto out = engine_->Execute(frameql);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    cap->out = std::move(out).value();
    cap->stable_metrics = obs::MetricsRegistry::Global()
                              .Snapshot()
                              .DeltaFrom(before)
                              .StableOnly()
                              .ToText();
    ASSERT_NE(cap->out.report, nullptr);
    ASSERT_NE(cap->out.report->trace, nullptr);
    cap->structure = cap->out.report->trace->StructureSignature();
  }

  static BlazeItEngine* engine_;
};

BlazeItEngine* TraceDeterminismTest::engine_ = nullptr;

TEST_F(TraceDeterminismTest, StableMetricsAndSpansPoolSizeInvariant) {
  for (const char* q : kQueries) {
    SCOPED_TRACE(q);
    std::vector<Captured> runs;
    for (int threads : {1, 2, 8}) {
      exec::ThreadPool::Instance().Reconfigure(threads);
      Captured cap;
      ASSERT_NO_FATAL_FAILURE(RunOnce(q, &cap));
      runs.push_back(std::move(cap));
    }
    const Captured& serial = runs.front();
    EXPECT_FALSE(serial.stable_metrics.empty());
    EXPECT_FALSE(serial.structure.empty());
    for (size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE("pool size " + std::to_string(i == 1 ? 2 : 8) + " vs 1");
      EXPECT_EQ(runs[i].stable_metrics, serial.stable_metrics);
      EXPECT_EQ(runs[i].structure, serial.structure);
      // The query outputs themselves stay bit-identical too (the broader
      // contract parallel_determinism_test covers in depth).
      EXPECT_EQ(runs[i].out.scalar, serial.out.scalar);
      EXPECT_EQ(runs[i].out.frames, serial.out.frames);
      EXPECT_EQ(runs[i].out.cost.TotalSeconds(),
                serial.out.cost.TotalSeconds());
    }
  }
}

TEST_F(TraceDeterminismTest, ReportReconcilesWithMeterAndTraceValidates) {
  for (const char* q : kQueries) {
    SCOPED_TRACE(q);
    Captured cap;
    ASSERT_NO_FATAL_FAILURE(RunOnce(q, &cap));
    const obs::ExecutionReport& report = *cap.out.report;
    const CostMeter& cost = cap.out.cost;
    // Bit-exact reconciliation, not approximate: the report *is* the
    // meter's accounting.
    EXPECT_EQ(report.cost.detection_calls(), cost.detection_calls());
    EXPECT_EQ(report.cost.specialized_nn_calls(), cost.specialized_nn_calls());
    EXPECT_EQ(report.cost.filter_calls(), cost.filter_calls());
    EXPECT_EQ(report.cost.training_frames(), cost.training_frames());
    EXPECT_EQ(report.cost.detection_seconds(), cost.detection_seconds());
    EXPECT_EQ(report.cost.specialized_nn_seconds(),
              cost.specialized_nn_seconds());
    EXPECT_EQ(report.cost.filter_seconds(), cost.filter_seconds());
    EXPECT_EQ(report.cost.training_seconds(), cost.training_seconds());
    EXPECT_EQ(report.cost.thresholding_seconds(), cost.thresholding_seconds());
    EXPECT_EQ(report.cost.TotalSeconds(), cost.TotalSeconds());
    EXPECT_EQ(report.cost.QuerySeconds(), cost.QuerySeconds());
    EXPECT_FALSE(report.plan.empty());
    EXPECT_EQ(report.batch_group, -1);  // standalone run

    const std::string chrome = report.trace->ToChromeJson();
    EXPECT_TRUE(JsonValidator::Valid(chrome)) << chrome;
    EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_TRUE(JsonValidator::Valid(report.ToJson()));
    EXPECT_FALSE(report.ToText().empty());
  }
}

TEST_F(TraceDeterminismTest, BatchSpanStructureMatchesSerial) {
  const std::vector<std::string> queries(std::begin(kQueries),
                                         std::end(kQueries));
  std::vector<Captured> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(RunOnce(queries[i], &serial[i]));
  }
  // One window holding every query: the batching path.
  serve::ServeOptions options;
  options.window_ticks = 100;
  serve::AdmissionQueue queue(engine_, options);
  std::vector<int64_t> tickets;
  for (const std::string& q : queries) {
    auto ticket = queue.Submit("batch", q);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(ticket.value());
  }
  queue.Drain();
  std::vector<serve::ServeResponse> responses = queue.TakeCompleted();
  ASSERT_EQ(responses.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    auto resp = std::find_if(responses.begin(), responses.end(),
                             [&](const serve::ServeResponse& r) {
                               return r.ticket == tickets[i];
                             });
    ASSERT_NE(resp, responses.end());
    ASSERT_TRUE(resp->output.ok());
    const QueryOutput& out = resp->output.value();
    ASSERT_NE(out.report, nullptr);
    ASSERT_NE(out.report->trace, nullptr);
    // Identical span structure: the batching path shares sweeps but never
    // changes which lifecycle stages a query runs.
    EXPECT_EQ(out.report->trace->StructureSignature(), serial[i].structure);
    EXPECT_GE(out.report->batch_group, 0);
    // Outputs and accounting stay bit-identical to standalone execution.
    EXPECT_EQ(out.scalar, serial[i].out.scalar);
    EXPECT_EQ(out.frames, serial[i].out.frames);
    EXPECT_EQ(out.cost.TotalSeconds(), serial[i].out.cost.TotalSeconds());
    EXPECT_EQ(out.report->cost.TotalSeconds(),
              serial[i].out.cost.TotalSeconds());
  }
}

}  // namespace
}  // namespace blazeit
