// The batching path's headline contract, asserted end to end: a
// one-client admission window is *byte-identical* to calling Execute
// serially per query — answers, matched frames, selection rows, and
// simulated costs — at pool sizes 1 (pool disabled), 2, and 8, even
// though the window shares one NN training run and one per-frame sweep
// across each shared-plan group. Also covers the batch bookkeeping itself
// (grouping, sharing stats, error slots) and the queue's warm sweeps
// across windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/shared_sweep.h"
#include "exec/thread_pool.h"
#include "serve/admission_queue.h"
#include "testing/test_util.h"

namespace blazeit {
namespace {

using serve::AdmissionQueue;
using serve::ServeOptions;
using serve::ServeResponse;

::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

/// One client's batch: the window stays open until Drain, and the quota
/// never refuses a query.
ServeOptions BatchOptions() {
  ServeOptions options;
  options.window_ticks = 100;
  options.per_client_quota = 1 << 20;
  return options;
}

/// Runs `queries` as one admission window of one client and returns the
/// responses in submission order.
std::vector<ServeResponse> RunWindow(AdmissionQueue* queue,
                                     const std::vector<std::string>& queries) {
  for (const std::string& q : queries) {
    auto ticket = queue->Submit("batch", q);
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
  }
  queue->Drain();
  std::vector<ServeResponse> responses = queue->TakeCompleted();
  std::sort(responses.begin(), responses.end(),
            [](const ServeResponse& a, const ServeResponse& b) {
              return a.ticket < b.ticket;
            });
  return responses;
}

/// The batch mixes every executor kind, exercises shared-plan grouping
/// (three aggregates + two scrubbings collapse to one group each), and
/// includes a mid-batch failure.
const char* kBatchQueries[] = {
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%",
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.05 AT CONFIDENCE 95%",
    "SELECT COUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2",
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50",
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 3 GAP 20",
    "SELECT * FROM taipei WHERE class = 'bus' "
    "AND redness(content) >= 0.25 AND area(mask) > 20000 "
    "GROUP BY trackid HAVING COUNT(*) > 15",
    "SELECT timestamp FROM taipei WHERE class = 'bus' "
    "FNR WITHIN 0.01 FPR WITHIN 0.01",
    "SELECT timestamp FROM taipei WHERE class = 'bus' AND timestamp >= 30",
    "SELEC oops",  // parse error must land in its slot, not fail the batch
    "SELECT COUNT(DISTINCT trackid) FROM taipei WHERE class = 'car' "
    "AND timestamp <= 60",
};

class BatchDeterminismTest
    : public testutil::CatalogFixture<BatchDeterminismTest> {
 public:
  static DayLengths Lengths() { return testutil::SmallDays(2000, 2000, 4000); }

 protected:
  static void SetUpTestSuite() {
    CatalogFixture::SetUpTestSuite();
    engine_ = new BlazeItEngine(catalog_, testutil::SmallEngineOptions());
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

  static void ExpectSameOutput(const QueryOutput& batch,
                               const QueryOutput& serial) {
    EXPECT_EQ(batch.kind, serial.kind);
    EXPECT_EQ(batch.plan, serial.plan);
    EXPECT_TRUE(BitsEqual(batch.scalar, serial.scalar));
    EXPECT_EQ(batch.frames, serial.frames);
    ASSERT_EQ(batch.rows.size(), serial.rows.size());
    for (size_t r = 0; r < serial.rows.size(); ++r) {
      EXPECT_EQ(batch.rows[r].frame, serial.rows[r].frame);
      EXPECT_EQ(batch.rows[r].detection.class_id,
                serial.rows[r].detection.class_id);
      EXPECT_TRUE(BitsEqual(batch.rows[r].detection.score,
                            serial.rows[r].detection.score));
      EXPECT_EQ(batch.rows[r].detection.features,
                serial.rows[r].detection.features);
    }
    EXPECT_EQ(batch.cost.detection_calls(), serial.cost.detection_calls());
    EXPECT_EQ(batch.cost.specialized_nn_calls(),
              serial.cost.specialized_nn_calls());
    EXPECT_EQ(batch.cost.filter_calls(), serial.cost.filter_calls());
    EXPECT_EQ(batch.cost.training_frames(), serial.cost.training_frames());
    EXPECT_TRUE(
        BitsEqual(batch.cost.TotalSeconds(), serial.cost.TotalSeconds()));
    EXPECT_TRUE(
        BitsEqual(batch.cost.QuerySeconds(), serial.cost.QuerySeconds()));
    EXPECT_EQ(batch.plan_description, serial.plan_description);
  }

  static BlazeItEngine* engine_;
};

BlazeItEngine* BatchDeterminismTest::engine_ = nullptr;

TEST_F(BatchDeterminismTest, BatchMatchesSerialExecuteAtEveryPoolSize) {
  const std::vector<std::string> queries(std::begin(kBatchQueries),
                                         std::end(kBatchQueries));

  // Serial reference, computed once (Execute itself is thread-count
  // invariant per parallel_determinism_test).
  std::vector<Result<QueryOutput>> serial;
  for (const std::string& q : queries) serial.push_back(engine_->Execute(q));

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::ThreadPool::Instance().Reconfigure(threads);
    AdmissionQueue queue(engine_, BatchOptions());
    const std::vector<ServeResponse> out = RunWindow(&queue, queries);
    ASSERT_EQ(out.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query[" + std::to_string(i) + "]: " + queries[i]);
      ASSERT_EQ(out[i].output.ok(), serial[i].ok());
      if (!serial[i].ok()) {
        EXPECT_EQ(out[i].output.status(), serial[i].status());
        continue;
      }
      ExpectSameOutput(out[i].output.value(), serial[i].value());
    }
  }
}

TEST_F(BatchDeterminismTest, SharedPlanGroupingCollapsesSameSweepQueries) {
  const std::vector<std::string> queries(std::begin(kBatchQueries),
                                         std::end(kBatchQueries));
  AdmissionQueue queue(engine_, BatchOptions());
  const std::vector<ServeResponse> out = RunWindow(&queue, queries);
  ASSERT_EQ(out.size(), queries.size());
  const serve::ServerStats stats = queue.stats();

  // 3 aggregates -> 1 group, 2 scrubbings -> 1 group, selection, binary
  // select, exhaustive, count-distinct -> 1 each (the parse error gets no
  // group).
  EXPECT_EQ(stats.groups, 6);
  EXPECT_EQ(out[0].stats.group, out[1].stats.group);
  EXPECT_EQ(out[0].stats.group, out[2].stats.group);
  EXPECT_EQ(out[3].stats.group, out[4].stats.group);
  EXPECT_NE(out[0].stats.group, out[3].stats.group);

  // Followers of a shared-plan group reuse the leader's trained model and
  // per-frame sweep: the window charges NN cost for ~one sweep, not N.
  EXPECT_EQ(out[0].stats.shared_models, 0);  // leader trains
  EXPECT_EQ(out[1].stats.shared_models, 1);
  EXPECT_EQ(out[2].stats.shared_models, 1);
  EXPECT_GT(out[1].stats.shared_nn_frames, 0);
  EXPECT_GT(out[2].stats.shared_nn_frames, 0);
  EXPECT_EQ(out[4].stats.shared_models, 1);
  EXPECT_GT(out[4].stats.shared_nn_frames, 0);

  // Savings surface in the window accounting, never in per-query meters.
  EXPECT_GT(stats.standalone_seconds, stats.batch_seconds);
  EXPECT_LT(out[1].stats.batch_seconds, out[1].stats.standalone_seconds);
  // The follower aggregate's entire NN bill (training + held-out + test
  // sweeps) is absorbed; what remains is its detector sampling.
  const CostMeter& follower = out[1].output.value().cost;
  EXPECT_LT(out[1].stats.batch_seconds,
            follower.TotalSeconds() - follower.training_seconds());
}

TEST_F(BatchDeterminismTest, EmptyWindowIsOk) {
  AdmissionQueue queue(engine_, BatchOptions());
  EXPECT_TRUE(RunWindow(&queue, {}).empty());
  EXPECT_EQ(queue.stats().groups, 0);
}

TEST_F(BatchDeterminismTest, QueueKeepsSweepsWarmAcrossWindows) {
  AdmissionQueue queue(engine_, BatchOptions());
  const std::string agg =
      "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
      "ERROR WITHIN 0.1 AT CONFIDENCE 95%";

  const std::vector<ServeResponse> first = RunWindow(&queue, {agg});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].output.ok());
  EXPECT_EQ(queue.queue_depth(), 0);
  // The queue's sweep tier now holds the trained model + per-frame rows.
  EXPECT_GT(queue.sweeps().frame_float_records(), 0);
  EXPECT_GE(queue.sweeps().blob_records(), 1);

  // A second window re-asking about the same (stream, class) is served
  // entirely from the warm sweeps...
  const std::vector<ServeResponse> second = RunWindow(&queue, {agg});
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(second[0].output.ok());
  EXPECT_EQ(second[0].stats.shared_models, 1);
  EXPECT_GT(second[0].stats.shared_nn_frames, 0);

  // ...and still returns bit-identical output, including the meter.
  auto serial = engine_->Execute(agg);
  BLAZEIT_ASSERT_OK(serial);
  ExpectSameOutput(second[0].output.value(), serial.value());

  // A third one-query window on the same warm queue matches too.
  const std::vector<ServeResponse> single = RunWindow(&queue, {agg});
  ASSERT_EQ(single.size(), 1u);
  BLAZEIT_ASSERT_OK(single[0].output);
  ExpectSameOutput(single[0].output.value(), serial.value());
}

}  // namespace
}  // namespace blazeit
