#ifndef BLAZEIT_TESTS_TESTING_TEST_UTIL_H_
#define BLAZEIT_TESTS_TESTING_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "util/status.h"
#include "video/datasets.h"

namespace blazeit {
namespace testutil {

/// Directory of the shared warm detection store, or "" when persistence is
/// off. ci/check.sh exports BLAZEIT_DETECTION_STORE and runs the slow lane
/// twice — cold then warm — so every catalog-backed suite skips detector
/// and NN recomputation on the second pass. Outputs are unaffected either
/// way (store_invariance_test asserts this end to end).
inline std::string DetectionStoreDir() {
  const char* dir = std::getenv("BLAZEIT_DETECTION_STORE");
  return dir == nullptr ? std::string() : std::string(dir);
}

/// Catalog wired to the shared warm store when BLAZEIT_DETECTION_STORE is
/// set — what CatalogFixture does, for tests that build catalogs directly.
inline VideoCatalog MakeCatalog() {
  VideoCatalog catalog;
  const std::string dir = DetectionStoreDir();
  if (!dir.empty()) {
    EXPECT_TRUE(catalog.EnableDetectionStore(dir).ok())
        << "enabling detection store at " << dir;
  }
  return catalog;
}

/// Day lengths small enough for unit tests: minutes of video, not the
/// paper-scale hours used by bench/.
inline DayLengths SmallDays(int64_t train = 6000, int64_t held_out = 6000,
                            int64_t test = 12000) {
  DayLengths lengths;
  lengths.train = train;
  lengths.held_out = held_out;
  lengths.test = test;
  return lengths;
}

/// The small specialized-NN configuration every suite trains: a 16x16
/// raster with one 32-wide hidden layer. Big enough to correlate with the
/// signal, small enough to train in milliseconds.
inline SpecializedNNConfig SmallNN() {
  SpecializedNNConfig nn;
  nn.raster_width = 16;
  nn.raster_height = 16;
  nn.hidden_dims = {32};
  return nn;
}

/// Small-NN options for any executor-options struct with an `nn` member
/// (AggregateOptions, ScrubOptions, SelectionOptions).
template <typename OptionsT>
OptionsT SmallNNOptions() {
  OptionsT opt;
  opt.nn = SmallNN();
  return opt;
}

/// Engine options with the small NN wired into all three executors.
inline EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.aggregate.nn = SmallNN();
  options.scrub.nn = SmallNN();
  options.selection.nn = SmallNN();
  return options;
}

/// Pretty-printing `ok()` checks for Status and Result<T>.
inline ::testing::AssertionResult IsOk(const Status& s) {
  if (s.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << s.ToString();
}

template <typename T>
::testing::AssertionResult IsOk(const Result<T>& r) {
  return IsOk(r.status());
}

/// Relative-tolerance matcher: |actual - expected| <= rel_tol * |expected|.
inline ::testing::AssertionResult NearRel(double actual, double expected,
                                          double rel_tol) {
  const double bound = rel_tol * std::abs(expected);
  if (std::abs(actual - expected) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << actual << " not within " << rel_tol << " (relative) of "
         << expected << " (allowed slack " << bound << ")";
}

/// ObjectDetector wrapper that counts how often the inner detector runs.
/// The count is atomic, so concurrent callers may share one wrapper.
class CountingDetector : public ObjectDetector {
 public:
  explicit CountingDetector(const ObjectDetector* inner) : inner_(inner) {}
  std::vector<Detection> Detect(const SyntheticVideo& video,
                                int64_t frame) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Detect(video, frame);
  }
  std::string name() const override { return inner_->name(); }
  uint64_t ParamsFingerprint() const override {
    return inner_->ParamsFingerprint();
  }
  int64_t calls() const { return calls_.load(); }

 private:
  const ObjectDetector* inner_;
  mutable std::atomic<int64_t> calls_{0};
};

/// Field-by-field equality of two detection lists, with exact doubles.
inline void ExpectSameDetections(const std::vector<Detection>& a,
                                 const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_id, b[i].class_id);
    EXPECT_EQ(a[i].rect, b[i].rect);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].features, b[i].features);
  }
}

/// Suite-shared catalog fixture (CRTP). Generating and detecting the
/// synthetic days dominates suite runtime, so streams are built once per
/// suite. Derived classes may shadow Streams() and/or Lengths() — the
/// shadows must be public, since the base calls them through `Derived::`:
///
///   class MyTest : public testutil::CatalogFixture<MyTest> {
///    public:
///     static DayLengths Lengths() { return testutil::SmallDays(3000); }
///   };
///
/// `stream_` points at the first configured stream.
template <typename Derived>
class CatalogFixture : public ::testing::Test {
 public:
  static std::vector<StreamConfig> Streams() { return {TaipeiConfig()}; }
  static DayLengths Lengths() { return SmallDays(); }

 protected:
  static void SetUpTestSuite() {
    catalog_ = new VideoCatalog();
    const std::string store_dir = DetectionStoreDir();
    if (!store_dir.empty()) {
      ASSERT_TRUE(IsOk(catalog_->EnableDetectionStore(store_dir)))
          << "enabling detection store at " << store_dir;
    }
    for (const StreamConfig& config : Derived::Streams()) {
      ASSERT_TRUE(IsOk(catalog_->AddStream(config, Derived::Lengths())))
          << "adding stream " << config.name;
    }
    stream_ = catalog_->GetStream(Derived::Streams().front().name).value();
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
    stream_ = nullptr;
  }

  static VideoCatalog* catalog_;
  static StreamData* stream_;
};

template <typename Derived>
VideoCatalog* CatalogFixture<Derived>::catalog_ = nullptr;
template <typename Derived>
StreamData* CatalogFixture<Derived>::stream_ = nullptr;

}  // namespace testutil
}  // namespace blazeit

#define BLAZEIT_EXPECT_OK(expr) EXPECT_TRUE(::blazeit::testutil::IsOk((expr)))
#define BLAZEIT_ASSERT_OK(expr) ASSERT_TRUE(::blazeit::testutil::IsOk((expr)))

#endif  // BLAZEIT_TESTS_TESTING_TEST_UTIL_H_
