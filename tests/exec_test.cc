#include "exec/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/frame_pipeline.h"
#include "exec/thread_pool.h"

namespace blazeit {
namespace {

using exec::FramePipeline;
using exec::ParallelFor;
using exec::ParallelMap;
using exec::ThreadPool;

/// Each test picks its own pool size; restore a small parallel default
/// afterwards so suite order never matters.
class ExecTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::Instance().Reconfigure(2); }
};

TEST_F(ExecTest, ReconfigureSetsMaxParallelism) {
  ThreadPool::Instance().Reconfigure(4);
  EXPECT_EQ(ThreadPool::Instance().max_parallelism(), 4);
  EXPECT_TRUE(ThreadPool::Instance().enabled());
  ThreadPool::Instance().Reconfigure(1);
  EXPECT_EQ(ThreadPool::Instance().max_parallelism(), 1);
  EXPECT_FALSE(ThreadPool::Instance().enabled());
  // Below 1 clamps to serial rather than failing.
  ThreadPool::Instance().Reconfigure(0);
  EXPECT_EQ(ThreadPool::Instance().max_parallelism(), 1);
}

TEST_F(ExecTest, ThreadsFromEnvParsesKnob) {
  ASSERT_EQ(setenv("BLAZEIT_THREADS", "5", 1), 0);
  EXPECT_EQ(ThreadPool::ThreadsFromEnv(), 5);
  ASSERT_EQ(setenv("BLAZEIT_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::ThreadsFromEnv(), 1);  // 0 means serial, not zero
  ASSERT_EQ(setenv("BLAZEIT_THREADS", "-3", 1), 0);
  EXPECT_EQ(ThreadPool::ThreadsFromEnv(), 1);
  ASSERT_EQ(unsetenv("BLAZEIT_THREADS"), 0);
  EXPECT_GE(ThreadPool::ThreadsFromEnv(), 1);  // hardware_concurrency
}

TEST_F(ExecTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool::Instance().Reconfigure(4);
  constexpr int64_t kTotal = 10'000;
  std::vector<std::atomic<int>> visits(kTotal);
  ParallelFor(kTotal, 64, [&](int64_t begin, int64_t end, int slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, ThreadPool::Instance().max_parallelism());
    for (int64_t i = begin; i < end; ++i) {
      visits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_F(ExecTest, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool::Instance().Reconfigure(4);
  int64_t calls = 0;
  ParallelFor(0, 64, [&](int64_t, int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  ParallelFor(3, 64, [&](int64_t begin, int64_t end, int) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST_F(ExecTest, ParallelMapMergesInShardOrder) {
  ThreadPool::Instance().Reconfigure(8);
  // Each shard returns its begin index; the merged vector must be in
  // ascending shard order regardless of completion order.
  std::vector<int64_t> begins = ParallelMap<int64_t>(
      1000, 32, [](int64_t begin, int64_t, int) { return begin; });
  ASSERT_EQ(begins.size(), static_cast<size_t>((1000 + 31) / 32));
  for (size_t s = 0; s < begins.size(); ++s) {
    EXPECT_EQ(begins[s], static_cast<int64_t>(s) * 32);
  }
}

TEST_F(ExecTest, SerialPoolRunsInlineOnCaller) {
  ThreadPool::Instance().Reconfigure(1);
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(100, 10, [&](int64_t, int64_t, int slot) {
    EXPECT_EQ(slot, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST_F(ExecTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool::Instance().Reconfigure(4);
  EXPECT_THROW(
      ParallelFor(1000, 16,
                  [&](int64_t begin, int64_t, int) {
                    if (begin == 512) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool keeps working after a throwing job.
  std::atomic<int64_t> count{0};
  ParallelFor(100, 16, [&](int64_t begin, int64_t end, int) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST_F(ExecTest, SerialExceptionIsLowestThrowingShard) {
  // With a serial pool the shards run in order and cancellation skips the
  // rest, so the surfaced exception is deterministically the first
  // throwing shard — the same one plain serial execution would hit.
  ThreadPool::Instance().Reconfigure(1);
  try {
    ParallelFor(100, 10, [&](int64_t begin, int64_t, int) {
      if (begin == 30) throw std::runtime_error("shard-3");
      if (begin == 70) throw std::runtime_error("shard-7");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard-3");
  }
}

TEST_F(ExecTest, NestedParallelForRunsInline) {
  ThreadPool::Instance().Reconfigure(4);
  std::atomic<int64_t> total{0};
  ParallelFor(8, 1, [&](int64_t, int64_t, int) {
    // Inner loops from inside a shard must not deadlock; they run inline.
    const std::thread::id inner_caller = std::this_thread::get_id();
    ParallelFor(50, 10, [&](int64_t begin, int64_t end, int slot) {
      EXPECT_EQ(slot, 0);
      EXPECT_EQ(std::this_thread::get_id(), inner_caller);
      total.fetch_add(end - begin);
    });
  });
  EXPECT_EQ(total.load(), 8 * 50);
}

/// The determinism contract end to end at the primitive level: a
/// floating-point map-reduce with fixed shard size folds to identical
/// bits at every thread count.
TEST_F(ExecTest, FloatReductionBitIdenticalAcrossThreadCounts) {
  auto run = [] {
    std::vector<double> partials = ParallelMap<double>(
        100'000, exec::kDefaultShardSize,
        [](int64_t begin, int64_t end, int) {
          double sum = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            sum += 1.0 / (1.0 + static_cast<double>(i));
          }
          return sum;
        });
    double total = 0.0;  // fixed-order serial fold
    for (double p : partials) total += p;
    return total;
  };
  ThreadPool::Instance().Reconfigure(1);
  const double serial = run();
  for (int threads : {2, 3, 8}) {
    ThreadPool::Instance().Reconfigure(threads);
    const double parallel = run();
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

TEST_F(ExecTest, FramePipelineProvidesPerSlotScratch) {
  ThreadPool::Instance().Reconfigure(4);
  // Scratch images grow to each slot's high-water mark and are handed
  // back to every shard that slot executes; writes through them must not
  // interfere across shards.
  constexpr int64_t kFrames = 512;
  std::vector<float> out(kFrames, 0.0f);
  FramePipeline::Run(kFrames, 64,
                     [&](int64_t begin, int64_t end,
                         FramePipeline::Scratch* scratch) {
                       ASSERT_NE(scratch, nullptr);
                       scratch->image.SetSize(8, 8);
                       for (int64_t i = begin; i < end; ++i) {
                         scratch->image.SetPixel(
                             0, 0,
                             {static_cast<float>(i) / kFrames, 0.0f, 0.0f});
                         out[static_cast<size_t>(i)] =
                             scratch->image.At(0, 0, 0);
                       }
                     });
  for (int64_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)],
              static_cast<float>(i) / kFrames);
  }
}

TEST_F(ExecTest, ManyConcurrentSmallJobs) {
  ThreadPool::Instance().Reconfigure(4);
  // Back-to-back small jobs stress the queue/wakeup path.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(17, 4, [&](int64_t begin, int64_t end, int) {
      for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    ASSERT_EQ(sum.load(), 17 * 16 / 2);
  }
}

}  // namespace
}  // namespace blazeit
