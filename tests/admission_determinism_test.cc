// The admission queue's headline contract, asserted end to end: every
// response of an admission window is *byte-identical* to a serial
// engine.Execute of the same query — answers, matched frames, selection
// rows, and the simulated CostMeter — at pool sizes 1 (pool disabled), 2,
// and 8, even though the window shares one NN training run and one
// per-frame sweep across each shared-plan group. Two execution modes run
// through one table: one client submitting a whole batch, and eight
// concurrent client threads whose admission order an atomic turn counter
// fixes (the only scheduling input the results depend on). Also covers the
// window bookkeeping (shared-plan grouping, cross-client coalescing,
// sharing stats, error slots, the empty window) and the queue's warm
// sweeps across windows cut by Drain and by Advance.
//
// ctest runs this suite as two entries (tests/CMakeLists.txt):
// serve_determinism_test runs the tests whose names hold "EightClient",
// and batch_determinism_test runs every other test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
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

/// One client's batch mixes every executor kind, exercises shared-plan
/// grouping (three aggregates + two scrubbings collapse to one group
/// each), and includes a mid-batch failure.
const std::vector<std::string> kOneClientQueries = {
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

/// Eight clients, one query each: four aggregates on one class (one
/// shared-plan group spanning four clients), two scrubbings (one group,
/// two clients), a selection, and an exhaustive scan.
const std::vector<std::string> kEightClientQueries = {
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.1 AT CONFIDENCE 95%",
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.05 AT CONFIDENCE 95%",
    "SELECT COUNT(*) FROM taipei WHERE class = 'car' ERROR WITHIN 0.2",
    "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
    "ERROR WITHIN 0.08 AT CONFIDENCE 95%",
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 5 GAP 50",
    "SELECT timestamp FROM taipei GROUP BY timestamp "
    "HAVING SUM(class='car') >= 2 LIMIT 3 GAP 20",
    "SELECT * FROM taipei WHERE class = 'bus' "
    "AND redness(content) >= 0.25 AND area(mask) > 20000 "
    "GROUP BY trackid HAVING COUNT(*) > 15",
    "SELECT timestamp FROM taipei WHERE class = 'bus' AND timestamp >= 30",
};

/// One way of filling an admission window.
struct Mode {
  const std::vector<std::string>* queries;
  /// One client submits every query; otherwise client i submits query i
  /// from its own thread.
  bool one_client;
  ServeOptions options;

  std::string ClientOf(size_t i) const {
    return one_client ? "batch" : "client-" + std::to_string(i);
  }
};

Mode OneClient() {
  ServeOptions options;
  options.window_ticks = 100;  // the window stays open until Drain
  options.per_client_quota = 1 << 20;  // the quota never refuses a query
  return {&kOneClientQueries, true, options};
}

Mode EightClients() {
  ServeOptions options;
  options.window_ticks = 100;  // one window holds all eight clients
  return {&kEightClientQueries, false, options};
}

/// Submits the mode's queries as one admission window, drains it, and
/// returns the responses in admission (ticket) order. Eight-client mode
/// runs one thread per client, and an atomic turn counter fixes the
/// admission order: client i submits only once i-1 has been admitted.
std::vector<ServeResponse> RunWindow(AdmissionQueue* queue,
                                     const Mode& mode) {
  const std::vector<std::string>& queries = *mode.queries;
  if (mode.one_client) {
    for (const std::string& q : queries) {
      auto ticket = queue->Submit(mode.ClientOf(0), q);
      EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    }
  } else {
    std::atomic<size_t> turn{0};
    std::vector<std::thread> clients;
    for (size_t i = 0; i < queries.size(); ++i) {
      clients.emplace_back([queue, &queries, &mode, &turn, i] {
        while (turn.load(std::memory_order_acquire) != i) {
          std::this_thread::yield();
        }
        auto ticket = queue->Submit(mode.ClientOf(i), queries[i]);
        EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
        turn.store(i + 1, std::memory_order_release);
      });
    }
    for (auto& t : clients) t.join();
  }
  queue->Drain();
  std::vector<ServeResponse> responses = queue->TakeCompleted();
  std::sort(responses.begin(), responses.end(),
            [](const ServeResponse& a, const ServeResponse& b) {
              return a.ticket < b.ticket;
            });
  return responses;
}

class AdmissionDeterminismTest
    : public testutil::CatalogFixture<AdmissionDeterminismTest> {
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

  static void ExpectSameOutput(const QueryOutput& served,
                               const QueryOutput& serial) {
    EXPECT_EQ(served.kind, serial.kind);
    EXPECT_EQ(served.plan, serial.plan);
    EXPECT_TRUE(BitsEqual(served.scalar, serial.scalar));
    EXPECT_EQ(served.frames, serial.frames);
    ASSERT_EQ(served.rows.size(), serial.rows.size());
    for (size_t r = 0; r < serial.rows.size(); ++r) {
      EXPECT_EQ(served.rows[r].frame, serial.rows[r].frame);
      EXPECT_EQ(served.rows[r].detection.class_id,
                serial.rows[r].detection.class_id);
      EXPECT_TRUE(BitsEqual(served.rows[r].detection.score,
                            serial.rows[r].detection.score));
      EXPECT_EQ(served.rows[r].detection.features,
                serial.rows[r].detection.features);
    }
    EXPECT_EQ(served.cost.detection_calls(), serial.cost.detection_calls());
    EXPECT_EQ(served.cost.specialized_nn_calls(),
              serial.cost.specialized_nn_calls());
    EXPECT_EQ(served.cost.filter_calls(), serial.cost.filter_calls());
    EXPECT_EQ(served.cost.training_frames(), serial.cost.training_frames());
    EXPECT_TRUE(
        BitsEqual(served.cost.TotalSeconds(), serial.cost.TotalSeconds()));
    EXPECT_TRUE(
        BitsEqual(served.cost.QuerySeconds(), serial.cost.QuerySeconds()));
    EXPECT_EQ(served.plan_description, serial.plan_description);
  }

  /// Runs the mode's window at pool sizes 1, 2 and 8 and expects every
  /// response to equal a serial Execute of its query.
  void ExpectWindowMatchesSerialExecute(const Mode& mode) {
    const std::vector<std::string>& queries = *mode.queries;
    // Serial reference, computed once (Execute itself is thread-count
    // invariant per parallel_determinism_test).
    std::vector<Result<QueryOutput>> serial;
    for (const std::string& q : queries) {
      serial.push_back(engine_->Execute(q));
    }

    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      exec::ThreadPool::Instance().Reconfigure(threads);
      AdmissionQueue queue(engine_, mode.options);
      const std::vector<ServeResponse> out = RunWindow(&queue, mode);
      if (HasFatalFailure()) return;
      ASSERT_EQ(out.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query[" + std::to_string(i) + "]: " + queries[i]);
        EXPECT_EQ(out[i].ticket, static_cast<int64_t>(i));
        EXPECT_EQ(out[i].client, mode.ClientOf(i));
        EXPECT_FALSE(out[i].degraded);
        ASSERT_EQ(out[i].output.ok(), serial[i].ok());
        if (!serial[i].ok()) {
          EXPECT_EQ(out[i].output.status(), serial[i].status());
          continue;
        }
        ExpectSameOutput(out[i].output.value(), serial[i].value());
      }
    }
  }

  static BlazeItEngine* engine_;
};

BlazeItEngine* AdmissionDeterminismTest::engine_ = nullptr;

TEST_F(AdmissionDeterminismTest, OneClientWindowMatchesSerialExecute) {
  ExpectWindowMatchesSerialExecute(OneClient());
}

TEST_F(AdmissionDeterminismTest, EightClientWindowMatchesSerialExecute) {
  ExpectWindowMatchesSerialExecute(EightClients());
}

TEST_F(AdmissionDeterminismTest, OneClientWindowGroupsSharedPlans) {
  const Mode mode = OneClient();
  AdmissionQueue queue(engine_, mode.options);
  const std::vector<ServeResponse> out = RunWindow(&queue, mode);
  ASSERT_EQ(out.size(), mode.queries->size());
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

TEST_F(AdmissionDeterminismTest, EightClientWindowCoalescesAcrossClients) {
  const Mode mode = EightClients();
  AdmissionQueue queue(engine_, mode.options);
  const std::vector<ServeResponse> out = RunWindow(&queue, mode);
  ASSERT_EQ(out.size(), mode.queries->size());
  for (const ServeResponse& resp : out) BLAZEIT_EXPECT_OK(resp.output);

  // Four aggregates -> 1 group, two scrubbings -> 1 group, selection and
  // exhaustive -> singletons.
  const serve::ServerStats stats = queue.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(out.size()));
  EXPECT_EQ(stats.groups, 4);
  EXPECT_EQ(stats.coalesced_queries, 6);
  // Every member of the two shared groups came from a different client —
  // the cross-client amortization a per-client batch cannot reach.
  EXPECT_EQ(stats.cross_client_groups, 2);
  // The sharing is measurable, not nominal: follower clients' NN frames
  // and trained models were served from another client's sweep, so the
  // window's charged cost sits strictly below the standalone sum.
  EXPECT_GT(stats.shared_nn_frames, 0);
  EXPECT_GE(stats.shared_models, 4);  // 3 aggregate + 1 scrubbing followers
  EXPECT_LT(stats.batch_seconds, stats.standalone_seconds);

  // Per-response stats carry the same accounting: the 3 follower
  // aggregates (tickets 1..3) reused ticket 0's model and sweep.
  for (size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(out[i].stats.shared_models, 1) << "ticket " << i;
    EXPECT_GT(out[i].stats.shared_nn_frames, 0) << "ticket " << i;
  }
}

TEST_F(AdmissionDeterminismTest, EmptyWindowIsOk) {
  const std::vector<std::string> none;
  Mode mode = OneClient();
  mode.queries = &none;
  AdmissionQueue queue(engine_, mode.options);
  EXPECT_TRUE(RunWindow(&queue, mode).empty());
  EXPECT_EQ(queue.stats().groups, 0);
}

TEST_F(AdmissionDeterminismTest, SweepsStayWarmAcrossWindows) {
  const std::string& agg = kOneClientQueries[0];
  const std::string& tighter_agg = kOneClientQueries[1];
  auto serial = engine_->Execute(tighter_agg);
  BLAZEIT_ASSERT_OK(serial);
  auto serial_agg = engine_->Execute(agg);
  BLAZEIT_ASSERT_OK(serial_agg);

  // Windows cut by Drain (a window that stays open) and by Advance (a
  // one-tick window on the virtual clock).
  for (bool advance : {false, true}) {
    SCOPED_TRACE(advance ? "Advance" : "Drain");
    ServeOptions options = OneClient().options;
    if (advance) options.window_ticks = 1;
    AdmissionQueue queue(engine_, options);
    auto run_window = [&](const std::string& client, const std::string& q) {
      BLAZEIT_EXPECT_OK(queue.Submit(client, q));
      if (advance) {
        queue.Advance();
      } else {
        queue.Drain();
      }
      return queue.TakeCompleted();
    };

    // Window 1: one aggregate trains the model and sweeps the stream.
    const std::vector<ServeResponse> first = run_window("alice", agg);
    ASSERT_EQ(first.size(), 1u);
    BLAZEIT_ASSERT_OK(first[0].output);
    EXPECT_EQ(first[0].stats.shared_models, 0);  // leader trains
    EXPECT_EQ(queue.queue_depth(), 0);
    // The queue's sweep tier now holds the trained model + per-frame rows.
    EXPECT_GT(queue.sweeps().frame_float_records(), 0);
    EXPECT_GE(queue.sweeps().blob_records(), 1);

    // Window 2: a different client's same-class aggregate is served from
    // the queue's warm sweeps — and still matches serial Execute to the
    // bit, including the meter, because a sweep hit only changes
    // *charged* accounting.
    const std::vector<ServeResponse> second = run_window("bob", tighter_agg);
    ASSERT_EQ(second.size(), 1u);
    BLAZEIT_ASSERT_OK(second[0].output);
    EXPECT_EQ(second[0].stats.shared_models, 1);
    EXPECT_GT(second[0].stats.shared_nn_frames, 0);
    ExpectSameOutput(second[0].output.value(), serial.value());

    // Window 3: re-asking window 1's query is served entirely from the
    // warm sweeps and matches too.
    const std::vector<ServeResponse> third = run_window("alice", agg);
    ASSERT_EQ(third.size(), 1u);
    BLAZEIT_ASSERT_OK(third[0].output);
    EXPECT_EQ(third[0].stats.shared_models, 1);
    EXPECT_GT(third[0].stats.shared_nn_frames, 0);
    ExpectSameOutput(third[0].output.value(), serial_agg.value());
  }
}

}  // namespace
}  // namespace blazeit
