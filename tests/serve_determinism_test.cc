// The serving layer's headline contract, asserted end to end: with a
// fixed admission order, every response the multi-tenant AdmissionQueue
// streams back is *byte-identical* to a serial engine.Execute of the same
// query — answers, matched frames, selection rows, and the simulated
// CostMeter — at pool sizes 1 (pool disabled), 2, and 8, even though the
// window coalesces eight clients' queries into shared-plan groups that
// train one NN and run one per-frame sweep per group. Client threads
// submit concurrently; an atomic turn counter fixes the admission order,
// which is the only scheduling input the results depend on. Also asserts
// the point of coalescing: cross-client groups form and measurably absorb
// charged NN work, and the queue's shared sweeps stay warm across
// admission windows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
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

/// Eight clients, one query each: four aggregates on one class (one
/// shared-plan group spanning four clients), two scrubbings (one group,
/// two clients), a selection, and an exhaustive scan.
const char* kClientQueries[] = {
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
constexpr size_t kNumClients =
    sizeof(kClientQueries) / sizeof(kClientQueries[0]);

class ServeDeterminismTest
    : public testutil::CatalogFixture<ServeDeterminismTest> {
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
    }
    EXPECT_EQ(served.cost.detection_calls(), serial.cost.detection_calls());
    EXPECT_EQ(served.cost.specialized_nn_calls(),
              serial.cost.specialized_nn_calls());
    EXPECT_EQ(served.cost.filter_calls(), serial.cost.filter_calls());
    EXPECT_EQ(served.cost.training_frames(), serial.cost.training_frames());
    EXPECT_TRUE(
        BitsEqual(served.cost.TotalSeconds(), serial.cost.TotalSeconds()));
    EXPECT_EQ(served.plan_description, serial.plan_description);
  }

  /// Eight concurrent client threads, admission order fixed by an atomic
  /// turn counter: client i submits only once i-1 has been admitted.
  /// Returns the responses indexed by ticket (== admission position).
  static std::vector<ServeResponse> ServeAllClients(AdmissionQueue* queue) {
    std::atomic<size_t> turn{0};
    std::vector<std::thread> clients;
    for (size_t i = 0; i < kNumClients; ++i) {
      clients.emplace_back([queue, &turn, i] {
        while (turn.load(std::memory_order_acquire) != i) {
          std::this_thread::yield();
        }
        auto ticket =
            queue->Submit("client-" + std::to_string(i), kClientQueries[i]);
        EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
        turn.store(i + 1, std::memory_order_release);
      });
    }
    for (auto& t : clients) t.join();
    queue->Drain();
    std::vector<ServeResponse> by_ticket(kNumClients);
    for (ServeResponse& resp : queue->TakeCompleted()) {
      if (resp.ticket < 0 ||
          static_cast<size_t>(resp.ticket) >= kNumClients) {
        ADD_FAILURE() << "unexpected ticket " << resp.ticket;
        continue;
      }
      by_ticket[static_cast<size_t>(resp.ticket)] = std::move(resp);
    }
    return by_ticket;
  }

  static BlazeItEngine* engine_;
};

BlazeItEngine* ServeDeterminismTest::engine_ = nullptr;

TEST_F(ServeDeterminismTest, ServedResponsesMatchSerialExecuteAtEveryPoolSize) {
  // Serial reference, computed once (Execute itself is thread-count
  // invariant per parallel_determinism_test).
  std::vector<Result<QueryOutput>> serial;
  for (const char* q : kClientQueries) serial.push_back(engine_->Execute(q));

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::ThreadPool::Instance().Reconfigure(threads);
    ServeOptions options;
    options.window_ticks = 100;  // one window holds all eight clients
    AdmissionQueue queue(engine_, options);
    std::vector<ServeResponse> responses = ServeAllClients(&queue);
    if (HasFatalFailure()) return;

    for (size_t i = 0; i < kNumClients; ++i) {
      SCOPED_TRACE("client[" + std::to_string(i) + "]: " + kClientQueries[i]);
      EXPECT_EQ(responses[i].client, "client-" + std::to_string(i));
      EXPECT_FALSE(responses[i].degraded);
      ASSERT_EQ(responses[i].output.ok(), serial[i].ok());
      if (!serial[i].ok()) continue;
      ExpectSameOutput(responses[i].output.value(), serial[i].value());
    }
  }
}

TEST_F(ServeDeterminismTest, EightClientWindowCoalescesAcrossClients) {
  ServeOptions options;
  options.window_ticks = 100;
  AdmissionQueue queue(engine_, options);
  std::vector<ServeResponse> responses = ServeAllClients(&queue);
  if (HasFatalFailure()) return;
  for (const ServeResponse& resp : responses) BLAZEIT_EXPECT_OK(resp.output);

  // Four aggregates -> 1 group, two scrubbings -> 1 group, selection and
  // exhaustive -> singletons.
  const serve::ServerStats stats = queue.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(kNumClients));
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
    EXPECT_EQ(responses[i].stats.shared_models, 1) << "ticket " << i;
    EXPECT_GT(responses[i].stats.shared_nn_frames, 0) << "ticket " << i;
  }
}

TEST_F(ServeDeterminismTest, SessionSweepsStayWarmAcrossWindows) {
  ServeOptions options;
  options.window_ticks = 1;
  AdmissionQueue queue(engine_, options);

  // Window 1: one aggregate trains the model and sweeps the stream.
  BLAZEIT_ASSERT_OK(queue.Submit("alice", kClientQueries[0]));
  queue.Advance();
  std::vector<ServeResponse> first = queue.TakeCompleted();
  ASSERT_EQ(first.size(), 1u);
  BLAZEIT_ASSERT_OK(first[0].output);
  EXPECT_EQ(first[0].stats.shared_models, 0);  // leader trains

  // Window 2: a different client's same-class aggregate is served from
  // the queue's warm sweeps — and still matches serial Execute to the
  // bit, because a sweep hit only changes *charged* accounting.
  BLAZEIT_ASSERT_OK(queue.Submit("bob", kClientQueries[1]));
  queue.Advance();
  std::vector<ServeResponse> second = queue.TakeCompleted();
  ASSERT_EQ(second.size(), 1u);
  BLAZEIT_ASSERT_OK(second[0].output);
  EXPECT_EQ(second[0].stats.shared_models, 1);
  EXPECT_GT(second[0].stats.shared_nn_frames, 0);

  auto serial = engine_->Execute(kClientQueries[1]);
  BLAZEIT_ASSERT_OK(serial);
  ExpectSameOutput(second[0].output.value(), serial.value());
}

}  // namespace
}  // namespace blazeit
