// Tests for the flight recorder behind /tracez: bounded last-N retention
// in a ring, the slowest-K reservoir, monotone correlation ids,
// JSON rendering, and concurrent record/snapshot safety (the last is the
// TSan target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "testing/json_util.h"

namespace blazeit {
namespace obs {
namespace {

using testutil::JsonValidator;

FlightRecord MakeRecord(int64_t id, double wall_ms) {
  FlightRecord record;
  record.correlation_id = id;
  record.client = "tenant-" + std::to_string(id % 3);
  record.query = "SELECT FCOUNT(*) FROM q" + std::to_string(id);
  record.plan = "sampling";
  record.accuracy_tier = "full";
  record.wall_ms = wall_ms;
  record.cost_seconds = wall_ms / 1000.0;
  return record;
}

TEST(FlightRecorderTest, RetainsExactlyLastNMostRecentFirst) {
  FlightRecorder::Options options;
  options.capacity = 8;
  options.slowest_k = 4;
  FlightRecorder recorder(options);

  for (int64_t i = 0; i < 20; ++i) {
    recorder.Record(MakeRecord(i, 1.0));
  }
  EXPECT_EQ(recorder.total_recorded(), 20);

  const std::vector<FlightRecord> recent = recorder.Snapshot();
  ASSERT_EQ(recent.size(), 8u);
  // Most recent first: sequences 19, 18, ..., 12. Everything older was
  // overwritten in place.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].sequence, 19 - static_cast<int64_t>(i));
    EXPECT_EQ(recent[i].correlation_id, 19 - static_cast<int64_t>(i));
  }
}

TEST(FlightRecorderTest, SnapshotBelowCapacityReturnsAllRecords) {
  FlightRecorder::Options options;
  options.capacity = 16;
  FlightRecorder recorder(options);
  recorder.Record(MakeRecord(100, 2.0));
  recorder.Record(MakeRecord(101, 3.0));
  const std::vector<FlightRecord> recent = recorder.Snapshot();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].correlation_id, 101);
  EXPECT_EQ(recent[1].correlation_id, 100);
}

TEST(FlightRecorderTest, SlowestReservoirKeepsOutliersAcrossFastBursts) {
  FlightRecorder::Options options;
  options.capacity = 4;  // tiny ring so fast queries churn it
  options.slowest_k = 3;
  FlightRecorder recorder(options);

  // Three slow outliers early...
  recorder.Record(MakeRecord(1, 500.0));
  recorder.Record(MakeRecord(2, 900.0));
  recorder.Record(MakeRecord(3, 700.0));
  // ...then a burst of fast queries that evicts them from the ring.
  for (int64_t i = 10; i < 40; ++i) {
    recorder.Record(MakeRecord(i, 1.0));
  }

  const std::vector<FlightRecord> recent = recorder.Snapshot();
  for (const FlightRecord& r : recent) {
    EXPECT_GE(r.correlation_id, 10);  // slow ones are gone from the ring
  }

  const std::vector<FlightRecord> slowest = recorder.SlowestSnapshot();
  ASSERT_EQ(slowest.size(), 3u);
  // Slowest first, and the fast burst displaced none of them.
  EXPECT_EQ(slowest[0].wall_ms, 900.0);
  EXPECT_EQ(slowest[1].wall_ms, 700.0);
  EXPECT_EQ(slowest[2].wall_ms, 500.0);
}

TEST(FlightRecorderTest, SlowerRecordDisplacesFastestRetained) {
  FlightRecorder::Options options;
  options.capacity = 8;
  options.slowest_k = 2;
  FlightRecorder recorder(options);
  recorder.Record(MakeRecord(1, 10.0));
  recorder.Record(MakeRecord(2, 20.0));
  recorder.Record(MakeRecord(3, 15.0));  // displaces the 10ms record
  const std::vector<FlightRecord> slowest = recorder.SlowestSnapshot();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].wall_ms, 20.0);
  EXPECT_EQ(slowest[1].wall_ms, 15.0);
}

TEST(FlightRecorderTest, CorrelationIdsAreStrictlyIncreasing) {
  const int64_t first = FlightRecorder::NextCorrelationId();
  const int64_t second = FlightRecorder::NextCorrelationId();
  const int64_t third = FlightRecorder::NextCorrelationId();
  EXPECT_GT(first, 0);
  EXPECT_EQ(second, first + 1);
  EXPECT_EQ(third, second + 1);
}

TEST(FlightRecorderTest, ToJsonIsValidAndCarriesBothViews) {
  FlightRecorder::Options options;
  options.capacity = 8;
  options.slowest_k = 2;
  FlightRecorder recorder(options);

  FlightRecord with_trace = MakeRecord(7, 12.5);
  with_trace.trace = std::make_shared<QueryTrace>("SELECT FCOUNT(*)");
  { TraceSpan span(with_trace.trace.get(), "execute"); }
  recorder.Record(std::move(with_trace));

  FlightRecord failed = MakeRecord(8, 1.0);
  failed.ok = false;
  failed.error = "InvalidArgument: bad \"query\"\nsecond line";
  recorder.Record(std::move(failed));

  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"total_recorded\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recent\":"), std::string::npos);
  EXPECT_NE(json.find("\"slowest\":"), std::string::npos);
  // The error string with quotes and a newline survived escaping.
  EXPECT_NE(json.find("bad \\\"query\\\"\\nsecond line"), std::string::npos)
      << json;
  // The traced record exports its structure signature.
  EXPECT_NE(json.find("\"trace_structure\":\"execute"), std::string::npos)
      << json;
}

TEST(FlightRecorderTest, ClampsDegenerateOptions) {
  FlightRecorder::Options options;
  options.capacity = 0;
  options.slowest_k = 0;
  FlightRecorder recorder(options);
  for (int64_t i = 0; i < 50; ++i) {
    recorder.Record(MakeRecord(i, 1.0));
  }
  EXPECT_EQ(recorder.total_recorded(), 50);
  // Capacity is clamped up to one slot, which holds the latest record.
  const std::vector<FlightRecord> recent = recorder.Snapshot();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].sequence, 49);
  // slowest_k == 0 disables the reservoir entirely.
  EXPECT_TRUE(recorder.SlowestSnapshot().empty());
}

// The TSan target: writers racing snapshot readers must be clean.
TEST(FlightRecorderTest, ConcurrentRecordAndSnapshot) {
  FlightRecorder::Options options;
  options.capacity = 64;
  options.slowest_k = 8;
  FlightRecorder recorder(options);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&recorder, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        recorder.Record(MakeRecord(w * kPerWriter + i, 1.0 + i % 7));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&recorder, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::vector<FlightRecord> recent = recorder.Snapshot();
        EXPECT_LE(recent.size(), 64u);
        // Snapshot is most-recent-first within what it observed.
        for (size_t i = 1; i < recent.size(); ++i) {
          EXPECT_GT(recent[i - 1].sequence, recent[i].sequence);
        }
        (void)recorder.SlowestSnapshot();
        (void)recorder.ToJson();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(recorder.total_recorded(), kWriters * kPerWriter);
  const std::vector<FlightRecord> recent = recorder.Snapshot();
  EXPECT_EQ(recent.size(), 64u);
  std::set<int64_t> sequences;
  for (const FlightRecord& r : recent) sequences.insert(r.sequence);
  EXPECT_EQ(sequences.size(), recent.size());  // no duplicate slots
}

}  // namespace
}  // namespace obs
}  // namespace blazeit
