#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace blazeit {
namespace {

TEST(RngTest, Mt19937FirstDrawMatchesStdEngine) {
  // The renderer relies on Mt19937_64FirstDraw reproducing the first
  // output of a freshly seeded std::mt19937_64 exactly (it replaced a
  // per-frame engine construction on the hot path).
  for (uint64_t seed :
       {0ULL, 1ULL, 42ULL, 0xdeadbeefULL, 0xffffffffffffffffULL,
        0x9e3779b97f4a7c15ULL}) {
    std::mt19937_64 engine(seed);
    EXPECT_EQ(Mt19937_64FirstDraw(seed), engine()) << "seed " << seed;
  }
  Rng meta(7);
  for (int i = 0; i < 200; ++i) {
    uint64_t seed = meta.engine()();
    std::mt19937_64 engine(seed);
    ASSERT_EQ(Mt19937_64FirstDraw(seed), engine()) << "seed " << seed;
  }
}

// The batched first draws behind the renderer's per-run noise seeds:
// equal to Mt19937_64FirstDraw seed by seed, in place and out of place,
// on full eight-lane groups and on every short last group. util_test runs
// in the native, _avx2 and _scalar lanes, so the AVX-512 chains (on hosts
// that have them) and the interleaved scalar ones are both pinned.
TEST(RngTest, FirstDrawsMatchFirstDraw) {
  std::mt19937_64 meta(23);
  std::vector<uint64_t> seeds(10000);
  for (uint64_t& seed : seeds) seed = meta();
  seeds[0] = 0;
  seeds[1] = ~uint64_t{0};
  std::vector<uint64_t> got(seeds.size());
  Mt19937_64FirstDraws(seeds.data(), seeds.size(), got.data());
  for (size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(got[i], Mt19937_64FirstDraw(seeds[i])) << "seed " << seeds[i];
  }
  for (size_t n = 1; n <= 17; ++n) {
    for (size_t offset : {size_t{0}, size_t{3}, size_t{9990 - n}}) {
      std::vector<uint64_t> run(seeds.begin() + static_cast<long>(offset),
                                seeds.begin() + static_cast<long>(offset + n));
      Mt19937_64FirstDraws(run.data(), n, run.data());  // in place
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(run[i], Mt19937_64FirstDraw(seeds[offset + i]))
            << "run " << n << " offset " << offset << " index " << i;
      }
    }
  }
}

// Slice-by-8 CRC against the bytewise loop it replaced, at every length
// up to 600 bytes (so every 8-byte step count and every 0-7 byte tail)
// and nine start alignments, from the initial state and from a running
// one; and the standard check value for "123456789" on both paths.
TEST(Crc32Test, SliceBy8MatchesBytewiseLoop) {
  std::mt19937_64 bytes(5);
  std::vector<unsigned char> buffer(600 + 9);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(bytes());
  for (size_t align = 0; align < 9; ++align) {
    const unsigned char* p = buffer.data() + align;
    for (size_t len = 0; len <= 600; ++len) {
      ASSERT_EQ(Crc32Update(kCrc32Init, p, len),
                Crc32UpdateBytewise(kCrc32Init, p, len))
          << "len " << len << " align " << align;
      ASSERT_EQ(Crc32Update(0x12345678u, p, len),
                Crc32UpdateBytewise(0x12345678u, p, len))
          << "len " << len << " align " << align;
    }
  }
  const char msg[] = "123456789";
  EXPECT_EQ(Crc32(msg, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32Finalize(Crc32UpdateBytewise(kCrc32Init, msg, 9)),
            0xCBF43926u);
}

// The block-refilled engine must reproduce std::mt19937_64 word for
// word. 5,000 outputs cross 16 refills of the 312-word block. util_test
// runs in the native, _avx2 and _scalar lanes, so the AVX-512 refill (on
// hosts that have it) and the scalar one are both pinned.
TEST(RngTest, EngineMatchesStdMt19937_64) {
  static_assert(std::is_same_v<Mt19937_64::result_type,
                               std::mt19937_64::result_type>);
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  std::mt19937_64 seeds(11);
  for (int s = 0; s < 120; ++s) {
    // A few fixed edge seeds, then arbitrary 64-bit ones.
    const uint64_t seed = s == 0   ? 0
                          : s == 1 ? ~uint64_t{0}
                          : s == 2 ? 5489  // the standard's default seed
                                   : seeds();
    Mt19937_64 engine(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(engine(), want()) << "seed " << seed << " output " << i;
    }
  }
}

TEST(RngTest, EnginePeekAndSkipFollowTheStream) {
  Mt19937_64 engine(3);
  std::mt19937_64 want(3);
  for (size_t take : {1u, 100u, 311u, 312u, 5u}) {
    size_t avail = 0;
    const uint64_t* words = engine.Peek(&avail);
    ASSERT_GE(avail, 1u);
    const size_t n = std::min(take, avail);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(words[i], want());
    engine.Skip(n);
    ASSERT_EQ(engine(), want());
  }
}

/// Bits of a double, so equality means the same value bit for bit.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every distribution Rng draws through must return the same values over
// Mt19937_64 as libstdc++'s over std::mt19937_64: the engine's interface
// types select the same code paths, and its stream is the same.
TEST(RngTest, DistributionsMatchStdEngine) {
  for (uint64_t seed : {1ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
    Rng rng(seed);
    std::mt19937_64 want(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(rng.UniformInt(-3, 1499),
                std::uniform_int_distribution<int64_t>(-3, 1499)(want));
      ASSERT_EQ(Bits(rng.Uniform()),
                Bits(std::uniform_real_distribution<double>(0.0, 1.0)(want)));
      ASSERT_EQ(Bits(rng.Uniform(0.05, 0.95)),
                Bits(std::uniform_real_distribution<double>(0.05, 0.95)(
                    want)));
      ASSERT_EQ(Bits(rng.Normal(1.0, 2.0)),
                Bits(std::normal_distribution<double>(1.0, 2.0)(want)));
      // Both of libstdc++'s Poisson algorithms: the small-mean product
      // loop and the large-mean rejection sampler.
      ASSERT_EQ(rng.Poisson(2.5), std::poisson_distribution<int>(2.5)(want));
      ASSERT_EQ(rng.Poisson(40.0),
                std::poisson_distribution<int>(40.0)(want));
      ASSERT_EQ(rng.Bernoulli(0.3), std::bernoulli_distribution(0.3)(want));
      ASSERT_EQ(Bits(rng.LogNormal(0.5, 0.25)),
                Bits(std::lognormal_distribution<double>(0.5, 0.25)(want)));
    }
    std::vector<int64_t> a(1000), b(1000);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    std::shuffle(a.begin(), a.end(), rng.engine());
    std::shuffle(b.begin(), b.end(), want);
    ASSERT_EQ(a, b);
    ASSERT_EQ(rng.engine()(), want());  // the streams are still in step
  }
}

// UniformIndices is a run of uniform_int_distribution draws. The large
// ranges make libstdc++'s rejection step frequent (2^64 mod (2^62 + 1)
// rejects about a quarter of all outputs), so the redraw path and the
// stream position after it are pinned too; 2^32 - 1 is the widest range
// the vector mapping takes, 2^32 + 1 the narrowest it leaves to the
// scalar loop.
TEST(RngTest, UniformIndicesMatchStdUniformInt) {
  for (uint64_t range : {1ULL, 7ULL, 1500ULL, 0xFFFFFFFFULL, 0x100000001ULL,
                         (1ULL << 62) + 1, (1ULL << 63) + 12345}) {
    for (size_t count : {1u, 9u, 1000u, 5000u}) {
      Rng rng(range ^ count);
      std::mt19937_64 want(range ^ count);
      std::vector<uint64_t> got(count);
      rng.UniformIndices(range, count, got.data());
      std::uniform_int_distribution<uint64_t> dist(0, range - 1);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i], dist(want))
            << "range " << range << " count " << count << " index " << i;
      }
      ASSERT_EQ(rng.engine()(), want()) << "range " << range;
    }
  }
  // Inside the vector-mapped ranges (up to 2^32 - 1) a rejection is rare,
  // below 2^-32 per output. This seed, found by search, draws one at output
  // 963 for range 2^32 - 2^16 + 1, which pins the vector loop's hand-off to
  // the scalar one.
  {
    const uint64_t range = (1ULL << 32) - (1ULL << 16) + 1;
    const uint64_t seed = 2403239;
    std::mt19937_64 probe(seed);
    probe.discard(963);
    __extension__ using U128 = unsigned __int128;
    ASSERT_LT(static_cast<uint64_t>(static_cast<U128>(probe()) * range),
              (0 - range) % range);  // output 963 is rejected
    Rng rng(seed);
    std::mt19937_64 want(seed);
    std::vector<uint64_t> got(2000);
    rng.UniformIndices(range, got.size(), got.data());
    std::uniform_int_distribution<uint64_t> dist(0, range - 1);
    for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], dist(want)) << i;
    ASSERT_EQ(rng.engine()(), want());
  }
  // For ranges up to 2^63 it equals UniformInt(0, range - 1) itself.
  Rng a(9), b(9);
  std::vector<uint64_t> got(3000);
  a.UniformIndices(1500, got.size(), got.data());
  for (uint64_t v : got) ASSERT_EQ(static_cast<int64_t>(v), b.UniformInt(0, 1499));
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 5));
  EXPECT_EQ(seen, (std::set<int64_t>{3, 4, 5}));
}

TEST(RngTest, Determinism) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, PoissonMean) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(4);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, NormalMoments) {
  Rng rng(6);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(1.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, LogNormalMeanMatchesParameterization) {
  // LogNormal(mu = ln(m) - s^2/2, s) has mean m.
  Rng rng(7);
  double target = 10.0, sigma = 0.5;
  double mu = std::log(target) - sigma * sigma / 2;
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.LogNormal(mu, sigma);
  EXPECT_NEAR(sum / n, target, 0.3);
}

TEST(HashTest, HashCombineDiffers) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
  EXPECT_NE(HashCombine(1, 2), HashCombine(1, 3));
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
}

TEST(HashTest, HashStringStable) {
  EXPECT_EQ(HashString("taipei"), HashString("taipei"));
  EXPECT_NE(HashString("taipei"), HashString("archie"));
}

TEST(StringTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("FrameQL"), "frameql");
  EXPECT_EQ(ToUpper("select"), "SELECT");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

std::vector<std::pair<LogLevel, std::string>>* CapturedLogs() {
  static std::vector<std::pair<LogLevel, std::string>> logs;
  return &logs;
}

void CaptureSink(LogLevel level, const std::string& message) {
  CapturedLogs()->emplace_back(level, message);
}

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = Logger::level();
    CapturedLogs()->clear();
    Logger::set_sink(&CaptureSink);
  }
  void TearDown() override {
    Logger::set_sink(nullptr);
    Logger::set_level(saved_level_);
  }
  LogLevel saved_level_ = LogLevel::kInfo;
};

TEST_F(LoggingTest, LevelFilterDropsBelowThreshold) {
  Logger::set_level(LogLevel::kWarning);
  BLAZEIT_LOG(kDebug) << "dropped";
  BLAZEIT_LOG(kInfo) << "dropped too";
  BLAZEIT_LOG(kWarning) << "kept";
  BLAZEIT_LOG(kError) << "kept too";
  ASSERT_EQ(CapturedLogs()->size(), 2u);
  EXPECT_EQ((*CapturedLogs())[0].first, LogLevel::kWarning);
  EXPECT_EQ((*CapturedLogs())[1].first, LogLevel::kError);
}

TEST_F(LoggingTest, StreamInsertionsCompose) {
  Logger::set_level(LogLevel::kDebug);
  BLAZEIT_LOG(kInfo) << "trained " << 42 << " epochs at " << 0.5;
  ASSERT_EQ(CapturedLogs()->size(), 1u);
  EXPECT_EQ((*CapturedLogs())[0].second, "trained 42 epochs at 0.5");
}

TEST_F(LoggingTest, StructuredFieldsAppendAfterMessage) {
  Logger::set_level(LogLevel::kDebug);
  BLAZEIT_LOG(kInfo).Field("cid", 7).Field("client", "alice") << "plan chosen";
  ASSERT_EQ(CapturedLogs()->size(), 1u);
  EXPECT_EQ((*CapturedLogs())[0].second, "plan chosen cid=7 client=alice");
}

TEST_F(LoggingTest, FieldValuesNeedingQuotesAreQuotedAndEscaped) {
  Logger::set_level(LogLevel::kDebug);
  BLAZEIT_LOG(kInfo)
          .Field("query", "SELECT * FROM t")  // spaces
          .Field("path", "a=b")               // '='
          .Field("msg", "say \"hi\" \\now")   // quotes + backslash
      << "failed";
  ASSERT_EQ(CapturedLogs()->size(), 1u);
  EXPECT_EQ((*CapturedLogs())[0].second,
            "failed query=\"SELECT * FROM t\" path=\"a=b\" "
            "msg=\"say \\\"hi\\\" \\\\now\"");
}

TEST_F(LoggingTest, FieldFormatsNonStringValues) {
  Logger::set_level(LogLevel::kDebug);
  BLAZEIT_LOG(kInfo).Field("wall_ms", 12.5).Field("ok", true) << "done";
  ASSERT_EQ(CapturedLogs()->size(), 1u);
  EXPECT_EQ((*CapturedLogs())[0].second, "done wall_ms=12.5 ok=1");
}

TEST_F(LoggingTest, FieldsWithoutMessageStillRender) {
  Logger::set_level(LogLevel::kDebug);
  BLAZEIT_LOG(kInfo).Field("cid", 3);
  ASSERT_EQ(CapturedLogs()->size(), 1u);
  EXPECT_EQ((*CapturedLogs())[0].second, " cid=3");
}

TEST_F(LoggingTest, LevelRoundTrips) {
  Logger::set_level(LogLevel::kError);
  EXPECT_EQ(Logger::level(), LogLevel::kError);
}

TEST_F(LoggingTest, NullSinkRestoresStderrWithoutCapture) {
  Logger::set_sink(nullptr);
  Logger::set_level(LogLevel::kError);  // keep test output clean
  BLAZEIT_LOG(kWarning) << "to stderr (filtered)";
  EXPECT_TRUE(CapturedLogs()->empty());
}

/// Mutex-guarded capture for the concurrency test (the plain CaptureSink
/// above is only used single-threaded; the Logger contract requires
/// sinks themselves to be thread-safe).
std::mutex* ConcurrentLogMutex() {
  static std::mutex mu;
  return &mu;
}

void ConcurrentCaptureSink(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> lock(*ConcurrentLogMutex());
  CapturedLogs()->emplace_back(level, message);
}

TEST_F(LoggingTest, ConcurrentLoggingKeepsLinesIntact) {
  // Hammer the logger from many threads; every delivered message must be
  // one complete, uninterleaved line (Logger formats each BLAZEIT_LOG
  // into a single string before it reaches the mutex-guarded sink or
  // stderr write).
  Logger::set_sink(&ConcurrentCaptureSink);
  Logger::set_level(LogLevel::kDebug);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        BLAZEIT_LOG(kInfo) << "thread " << t << " message " << i << " tail";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(CapturedLogs()->size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (const auto& [level, message] : *CapturedLogs()) {
    EXPECT_EQ(level, LogLevel::kInfo);
    // An interleaved or torn line would not match the exact shape.
    EXPECT_TRUE(message.rfind("thread ", 0) == 0 &&
                message.find(" message ") != std::string::npos &&
                message.size() >= sizeof("thread 0 message 0 tail") - 1 &&
                message.compare(message.size() - 5, 5, " tail") == 0)
        << "torn line: '" << message << "'";
  }
}

/// set_level is called from tests and executors while workers log; the
/// atomic level makes that race benign (TSan lane enforces it).
TEST_F(LoggingTest, ConcurrentLevelChangesAreSafe) {
  Logger::set_sink(&ConcurrentCaptureSink);
  std::thread toggler([] {
    for (int i = 0; i < 500; ++i) {
      Logger::set_level(i % 2 == 0 ? LogLevel::kDebug : LogLevel::kError);
    }
  });
  for (int i = 0; i < 500; ++i) {
    BLAZEIT_LOG(kWarning) << "racing message " << i;
  }
  toggler.join();
  for (const auto& [level, message] : *CapturedLogs()) {
    EXPECT_EQ(level, LogLevel::kWarning);
  }
}

}  // namespace
}  // namespace blazeit
