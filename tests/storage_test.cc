// src/storage/ coverage: byte-exact round trips through the versioned
// segment format, distinct rejection Statuses for every corruption mode
// (truncation, bad magic, version skew, checksum failure, stale rename),
// and read/write-through behaviour of the store-backed CachedDetector.
#include <gtest/gtest.h>

#include <algorithm>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "detect/cached_detector.h"
#include "detect/simulated_detector.h"
#include "obs/metrics.h"
#include "storage/detection_store.h"
#include "storage/record_format.h"
#include "storage/segment_sketch.h"
#include "storage/store_artifact_cache.h"
#include "testing/test_util.h"
#include "util/crc32.h"
#include "util/random.h"
#include "video/datasets.h"

namespace blazeit {
namespace {

namespace fs = std::filesystem;
using testutil::CountingDetector;
using testutil::ExpectSameDetections;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("blazeit-store-") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Path of the single segment file in dir_ (fails the test if != 1).
  std::string OnlySegmentPath() {
    std::vector<std::string> segments;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      segments.push_back(entry.path().string());
    }
    EXPECT_EQ(segments.size(), 1u);
    return segments.empty() ? std::string() : segments.front();
  }

  std::string dir_;
};

std::vector<Detection> RandomDetections(Rng* rng, int count,
                                        bool with_features) {
  std::vector<Detection> dets;
  for (int i = 0; i < count; ++i) {
    Detection d;
    d.class_id = static_cast<int>(rng->UniformInt(0, kNumClasses - 1));
    d.rect.xmin = rng->Uniform();
    d.rect.ymin = rng->Uniform();
    d.rect.xmax = d.rect.xmin + rng->Uniform(0.0, 0.3);
    d.rect.ymax = d.rect.ymin + rng->Uniform(0.0, 0.3);
    d.score = rng->Uniform();
    if (with_features) {
      for (int f = 0; f < 3; ++f) {
        d.features.push_back(static_cast<float>(rng->Uniform()));
      }
    }
    dets.push_back(d);
  }
  return dets;
}

TEST_F(StorageTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
  const char* msg = "123456789";
  EXPECT_EQ(Crc32(msg, 9), 0xCBF43926u);
  // Incremental chunks agree with the one-shot value.
  uint32_t state = Crc32Update(kCrc32Init, msg, 4);
  state = Crc32Update(state, msg + 4, 5);
  EXPECT_EQ(Crc32Finalize(state), 0xCBF43926u);
}

TEST_F(StorageTest, DetectionsPayloadRoundTrip) {
  Rng rng(7);
  std::vector<Detection> dets = RandomDetections(&rng, 5, true);
  auto decoded = DecodeDetectionsPayload(EncodeDetectionsPayload(dets));
  BLAZEIT_ASSERT_OK(decoded);
  ExpectSameDetections(decoded.value(), dets);

  auto empty = DecodeDetectionsPayload(EncodeDetectionsPayload({}));
  BLAZEIT_ASSERT_OK(empty);
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(StorageTest, DetectionsDecodeRejectsImpossibleCountWithoutAllocating) {
  // A payload from another record kind misread as detections (the sketch
  // rebuilder and repair validation probe arbitrary namespaces) can open
  // with an enormous bit pattern; decode must fail with ParseError before
  // reserving, not throw bad_alloc. 1e30f's little-endian bytes start a
  // ~3.4e9 row claim.
  auto floats = DecodeDetectionsPayload(EncodeFloatsPayload({1e30f, 0.0f}));
  EXPECT_EQ(floats.status().code(), StatusCode::kParseError);

  std::string hostile(sizeof(uint32_t), '\xff');
  auto max_count = DecodeDetectionsPayload(hostile);
  EXPECT_EQ(max_count.status().code(), StatusCode::kParseError);
}

TEST_F(StorageTest, DetectionsDecodeRejectsUnknownClassIds) {
  // Labeled sets count detections into one slot per class, so a row
  // whose class id names no class must fail to decode rather than reach
  // them.
  for (int class_id : {-1, static_cast<int>(kNumClasses), 1 << 20}) {
    Detection det;
    det.class_id = class_id;
    det.score = 0.9;
    auto decoded = DecodeDetectionsPayload(EncodeDetectionsPayload({det}));
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << class_id;
  }
}

TEST_F(StorageTest, StoreRoundTripProperty) {
  // Random detections -> Put -> Flush -> reopen -> byte-identical Get, over
  // several namespaces and 100 random frames each.
  Rng rng(42);
  std::vector<uint64_t> namespaces = {0xAAAA1111, 0xBBBB2222, 0xCCCC3333};
  std::map<std::pair<uint64_t, int64_t>, std::vector<Detection>> expected;
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store);
    for (uint64_t ns : namespaces) {
      for (int i = 0; i < 100; ++i) {
        int64_t frame = rng.UniformInt(0, 1000000);
        auto dets = RandomDetections(
            &rng, static_cast<int>(rng.UniformInt(0, 6)), rng.Bernoulli(0.5));
        // Skip duplicate frame draws: the store keeps the first payload per
        // (namespace, frame), so a re-draw with different detections would
        // make `expected` disagree with it.
        if (!expected.emplace(std::make_pair(ns, frame), dets).second) {
          continue;
        }
        BLAZEIT_ASSERT_OK(store.value()->PutDetections(ns, frame, dets));
      }
    }
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened);
  EXPECT_EQ(reopened.value()->TotalRecords(),
            static_cast<int64_t>(expected.size()));
  for (const auto& [key, dets] : expected) {
    ASSERT_TRUE(reopened.value()->Contains(key.first, key.second));
    auto got = reopened.value()->GetDetections(key.first, key.second);
    BLAZEIT_ASSERT_OK(got);
    ExpectSameDetections(got.value(), dets);
  }
}

TEST_F(StorageTest, FloatsRoundTripAndScan) {
  const uint64_t ns = 0xF10A75;
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store);
    BLAZEIT_ASSERT_OK(store.value()->PutFloats(ns, 3, {1.5f, -2.25f}));
    BLAZEIT_ASSERT_OK(store.value()->PutFloats(ns, 1, {0.125f}));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
    // Unflushed pending records are also visible.
    BLAZEIT_ASSERT_OK(store.value()->PutFloats(ns, 2, {7.0f}));
    std::vector<int64_t> order;
    BLAZEIT_ASSERT_OK(store.value()->Scan(
        ns, [&order](int64_t frame, const std::string&) {
          order.push_back(frame);
          return Status::OK();
        }));
    EXPECT_EQ(order, (std::vector<int64_t>{1, 2, 3}));
  }
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened);
  auto floats = reopened.value()->GetFloats(ns, 3);
  BLAZEIT_ASSERT_OK(floats);
  EXPECT_EQ(floats.value(), (std::vector<float>{1.5f, -2.25f}));
  auto missing = reopened.value()->GetFloats(ns, 99);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, MultipleFlushesMergeAcrossSegments) {
  const uint64_t ns = 0x5E65;
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store);
    BLAZEIT_ASSERT_OK(store.value()->PutFloats(ns, 1, {1.0f}));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
    BLAZEIT_ASSERT_OK(store.value()->PutFloats(ns, 2, {2.0f}));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened);
  EXPECT_EQ(reopened.value()->TotalRecords(), 2);
  EXPECT_TRUE(reopened.value()->Contains(ns, 1));
  EXPECT_TRUE(reopened.value()->Contains(ns, 2));
}

// The index keeps a day's frames in dense slots and the rest (negative
// sentinels, outlying ids) in a side map. Here the first segment's frame
// 5000 lies past the dense slots and goes to the side map; the second
// segment's run of frames grows the slots over it. Every frame must still
// resolve, first-write-wins must hold on both sides, and a reopen must
// rebuild the same view.
TEST_F(StorageTest, DenseAndOutlyingFramesResolveAcrossSegments) {
  const uint64_t ns = 0xF2A3E5;
  const std::vector<int64_t> first = {-1, 0, 1, 5000, 1LL << 40};
  std::vector<int64_t> second = {-1, 9000};
  for (int64_t f = 1; f <= 5001; ++f) second.push_back(f);
  auto put_all = [ns](DetectionStore* store, const std::vector<int64_t>& frames,
                      float tag) {
    for (int64_t f : frames) {
      BLAZEIT_ASSERT_OK(
          store->PutFloats(ns, f, {static_cast<float>(f), tag}));
    }
    BLAZEIT_ASSERT_OK(store->Flush());
  };
  auto check = [&](DetectionStore* store) {
    EXPECT_EQ(store->RecordCount(ns), 5005);  // -1, 0..5001, 9000, 2^40
    std::vector<int64_t> order;
    BLAZEIT_ASSERT_OK(
        store->Scan(ns, [&order](int64_t frame, const std::string&) {
          order.push_back(frame);
          return Status::OK();
        }));
    ASSERT_EQ(order.size(), 5005u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    for (int64_t f : order) {
      auto got = store->GetFloats(ns, f);
      BLAZEIT_ASSERT_OK(got);
      // Frames in both segments keep the first segment's record.
      const bool in_first =
          std::find(first.begin(), first.end(), f) != first.end();
      ASSERT_EQ(got.value(), (std::vector<float>{static_cast<float>(f),
                                                 in_first ? 1.0f : 2.0f}))
          << "frame " << f;
    }
    EXPECT_FALSE(store->Contains(ns, 5002));
    EXPECT_FALSE(store->Contains(ns, -2));
    EXPECT_FALSE(store->Contains(ns, 1LL << 41));
  };
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store);
    put_all(store.value().get(), first, 1.0f);
    put_all(store.value().get(), second, 2.0f);
    check(store.value().get());
  }
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened);
  check(reopened.value().get());
}

// --- corruption rejection: each failure mode has its own StatusCode ---

class CorruptionTest : public StorageTest {
 protected:
  /// Builds a one-segment store and returns the segment path.
  std::string BuildSegment() {
    auto store = DetectionStore::Open(dir_);
    EXPECT_TRUE(store.ok());
    Rng rng(3);
    for (int64_t frame = 0; frame < 20; ++frame) {
      EXPECT_TRUE(store.value()
                      ->PutDetections(kNs, frame,
                                      RandomDetections(&rng, 3, false))
                      .ok());
    }
    EXPECT_TRUE(store.value()->Flush().ok());
    return OnlySegmentPath();
  }

  static constexpr uint64_t kNs = 0xDEAD0001;
};

TEST_F(CorruptionTest, TruncatedFileRejected) {
  std::string path = BuildSegment();
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 7);
  auto reopened = DetectionStore::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(reopened.status().message().find("truncated"), std::string::npos)
      << reopened.status().ToString();

  // Truncation inside the file header is also OutOfRange.
  fs::resize_file(path, kStoreHeaderBytes / 2);
  auto header_cut = DetectionStore::Open(dir_);
  ASSERT_FALSE(header_cut.ok());
  EXPECT_EQ(header_cut.status().code(), StatusCode::kOutOfRange);
}

TEST_F(CorruptionTest, BadMagicRejected) {
  std::string path = BuildSegment();
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(0);
  f.write("NOTADET1", 8);
  f.close();
  auto reopened = DetectionStore::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().message().find("magic"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(CorruptionTest, VersionMismatchRejected) {
  std::string path = BuildSegment();
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);  // format_version field
  const uint32_t future_version = kStoreFormatVersion + 1;
  f.write(reinterpret_cast<const char*>(&future_version),
          sizeof(future_version));
  f.close();
  auto reopened = DetectionStore::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopened.status().message().find("version"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(CorruptionTest, ChecksumFailureRejected) {
  std::string path = BuildSegment();
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  // Flip one byte inside the first record's *payload* (file header + record
  // header + 2), so record framing stays intact and the CRC check is what
  // must catch the damage.
  const auto target =
      static_cast<std::streamoff>(kStoreHeaderBytes + kRecordHeaderBytes + 2);
  f.seekg(target);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(target);
  f.write(&byte, 1);
  f.close();
  auto reopened = DetectionStore::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kParseError);
}

TEST_F(CorruptionTest, StaleRenamedSegmentRejected) {
  std::string path = BuildSegment();
  // Rename under a different namespace: the filename no longer matches the
  // header fingerprint, as after copying caches between incompatible
  // configs.
  std::string renamed = path;
  size_t pos = renamed.find("dead0001");
  ASSERT_NE(pos, std::string::npos) << renamed;
  renamed.replace(pos, 8, "dead0002");
  fs::rename(path, renamed);
  auto reopened = DetectionStore::Open(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reopened.status().message().find("stale"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(CorruptionTest, TempFilesIgnored) {
  BuildSegment();
  // A concurrent writer's in-flight temp file must not break Open.
  std::ofstream tmp(fs::path(dir_) / "ns-0000000000000001-99.seg.tmp",
                    std::ios::binary);
  tmp << "partial garbage";
  tmp.close();
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened);
  EXPECT_EQ(reopened.value()->TotalRecords(), 20);
}

// --- Store-backed CachedDetector ---

TEST_F(StorageTest, PersistentDetectorReadsThroughWarmStore) {
  auto video = SyntheticVideo::Create(TaipeiConfig(), 5, 200).value();
  SimulatedDetector inner;
  std::vector<std::vector<Detection>> cold_results;
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store);
    CountingDetector counting(&inner);
    CachedDetector detector(&counting, store.value().get());
    for (int64_t t = 0; t < 50; ++t) {
      cold_results.push_back(detector.Detect(*video, t));
    }
    EXPECT_EQ(counting.calls(), 50);
    EXPECT_EQ(detector.store_misses(), 50);
    // Store flushes when it goes out of scope.
  }
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store);
    CountingDetector counting(&inner);
    CachedDetector detector(&counting, store.value().get());
    for (int64_t t = 0; t < 50; ++t) {
      auto warm = detector.Detect(*video, t);
      ExpectSameDetections(warm, cold_results[static_cast<size_t>(t)]);
    }
    // Every frame came from disk; the oracle never ran.
    EXPECT_EQ(counting.calls(), 0);
    EXPECT_EQ(detector.store_hits(), 50);
  }
}

TEST_F(StorageTest, PersistentDetectorKeysBySceneNotSeed) {
  // Two different streams sharing a seed must not collide in a shared
  // store (the catalog reuses day seeds across every stream).
  auto taipei = SyntheticVideo::Create(TaipeiConfig(), 101, 100).value();
  auto rialto = SyntheticVideo::Create(RialtoConfig(), 101, 100).value();
  SimulatedDetector inner;
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store);
  CachedDetector detector(&inner, store.value().get());
  EXPECT_NE(DetectionNamespace(*taipei, detector),
            DetectionNamespace(*rialto, detector));
  for (int64_t t = 0; t < 20; ++t) {
    ExpectSameDetections(detector.Detect(*taipei, t),
                         inner.Detect(*taipei, t));
    ExpectSameDetections(detector.Detect(*rialto, t),
                         inner.Detect(*rialto, t));
  }
}

TEST_F(StorageTest, CatalogFlushPublishesPendingDetections) {
  // Detections a catalog stream computes wait in the store as pending
  // records until VideoCatalog::FlushDetectionStore publishes them as one
  // segment of the stream's detections namespace.
  VideoCatalog catalog;
  BLAZEIT_ASSERT_OK(catalog.EnableDetectionStore(dir_));
  BLAZEIT_ASSERT_OK(catalog.AddStream(TaipeiConfig(),
                                      testutil::SmallDays(100, 100, 200)));
  StreamData* stream = catalog.GetStream("taipei").value();
  DetectionStore* store = catalog.detection_store();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->PerNamespaceStats().empty());
  for (int64_t t = 0; t < 50; ++t) {
    stream->detector->Detect(*stream->test_day, t);
  }
  auto stats_of = [&](uint64_t ns) {
    for (const DetectionStore::NamespaceStats& stats :
         store->PerNamespaceStats()) {
      if (stats.ns == ns) return stats;
    }
    ADD_FAILURE() << "no stats for namespace " << ns;
    return DetectionStore::NamespaceStats{};
  };

  ASSERT_EQ(store->PerNamespaceStats().size(), 1u);
  DetectionStore::NamespaceStats before = stats_of(stream->test_detections_ns);
  EXPECT_EQ(before.segments, 0);
  EXPECT_EQ(before.pending, 50);
  EXPECT_EQ(before.records, 50);
  EXPECT_EQ(before.shadowed, 0);
  EXPECT_EQ(store->pending_records(), 50);

  BLAZEIT_ASSERT_OK(catalog.FlushDetectionStore());
  ASSERT_EQ(store->PerNamespaceStats().size(), 1u);
  DetectionStore::NamespaceStats after = stats_of(stream->test_detections_ns);
  EXPECT_EQ(after.segments, 1);
  EXPECT_EQ(after.pending, 0);
  EXPECT_EQ(after.records, 50);
  EXPECT_EQ(after.shadowed, 0);
  EXPECT_EQ(after.repair_generation, before.repair_generation);
  EXPECT_EQ(store->pending_records(), 0);

  // A second flush has nothing to publish.
  BLAZEIT_ASSERT_OK(catalog.FlushDetectionStore());
  EXPECT_EQ(stats_of(stream->test_detections_ns).segments, 1);
}

TEST_F(StorageTest, CompactMergesSegmentsAndDropsShadowedDuplicates) {
  constexpr uint64_t kNs = 0xC0FFEE;
  // Two writers sharing the directory put overlapping frames with
  // *different* payloads (simulating the writer-bug scenario compaction
  // must not make worse): first-write-wins resolution must survive the
  // rewrite byte for byte.
  {
    auto first = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(first.status());
    for (int64_t f = 0; f < 50; ++f) {
      std::string payload = "first-";
      payload += std::to_string(f);
      BLAZEIT_ASSERT_OK(first.value()->PutRaw(kNs, f, std::move(payload)));
    }
    BLAZEIT_ASSERT_OK(first.value()->Flush());
    // The second writer flushes to a scratch directory and its segment is
    // moved in afterwards — a store opened on dir_ now would see the
    // first segment and refuse the duplicate Puts, while a genuinely
    // concurrent process's publish looks exactly like this rename.
    const std::string scratch = dir_ + "-writer2";
    fs::remove_all(scratch);
    auto second = DetectionStore::Open(scratch);
    BLAZEIT_ASSERT_OK(second.status());
    for (int64_t f = 25; f < 75; ++f) {
      std::string payload = "second-";
      payload += std::to_string(f);
      BLAZEIT_ASSERT_OK(second.value()->PutRaw(kNs, f, std::move(payload)));
    }
    BLAZEIT_ASSERT_OK(second.value()->Flush());
    for (const auto& entry : fs::directory_iterator(scratch)) {
      fs::rename(entry.path(),
                 fs::path(dir_) / entry.path().filename());
    }
    fs::remove_all(scratch);
  }

  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  EXPECT_EQ(store.value()->RecordCount(kNs), 75);
  EXPECT_EQ(store.value()->ShadowedRecords(), 25);

  // Capture the pre-compaction resolution of every frame.
  std::vector<std::string> before;
  for (int64_t f = 0; f < 75; ++f) {
    auto payload = store.value()->GetRaw(kNs, f);
    BLAZEIT_ASSERT_OK(payload.status());
    before.push_back(payload.value());
  }

  auto stats = store.value()->Compact();
  BLAZEIT_ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().namespaces_compacted, 1);
  EXPECT_EQ(stats.value().segments_before, 2);
  EXPECT_EQ(stats.value().segments_after, 1);
  EXPECT_EQ(stats.value().records_kept, 75);
  EXPECT_EQ(stats.value().duplicates_dropped, 25);
  EXPECT_EQ(store.value()->ShadowedRecords(), 0);

  // Same store object still resolves identically...
  for (int64_t f = 0; f < 75; ++f) {
    auto payload = store.value()->GetRaw(kNs, f);
    BLAZEIT_ASSERT_OK(payload.status());
    EXPECT_EQ(payload.value(), before[static_cast<size_t>(f)]) << f;
  }

  // ...and so does a fresh open of the compacted directory (one segment,
  // same winners, nothing shadowed).
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->RecordCount(kNs), 75);
  EXPECT_EQ(reopened.value()->ShadowedRecords(), 0);
  int64_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++segment_files;
  }
  EXPECT_EQ(segment_files, 1);
  for (int64_t f = 0; f < 75; ++f) {
    auto payload = reopened.value()->GetRaw(kNs, f);
    BLAZEIT_ASSERT_OK(payload.status());
    EXPECT_EQ(payload.value(), before[static_cast<size_t>(f)]) << f;
  }
}

TEST_F(StorageTest, CompactIsNoOpOnAlreadyCompactStore) {
  constexpr uint64_t kNs = 0xBEEF;
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  for (int64_t f = 0; f < 10; ++f) {
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, f, "payload"));
  }
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  const std::string segment = OnlySegmentPath();

  auto stats = store.value()->Compact();
  BLAZEIT_ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().namespaces_compacted, 0);
  EXPECT_EQ(stats.value().duplicates_dropped, 0);
  EXPECT_EQ(stats.value().records_kept, 10);
  // The single clean segment is left untouched, not rewritten.
  EXPECT_EQ(OnlySegmentPath(), segment);
}

TEST_F(StorageTest, CompactFlushesPendingRecordsFirst) {
  constexpr uint64_t kNs = 0xFEED;
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  for (int64_t f = 0; f < 5; ++f) {
    std::string payload = "p";
    payload += std::to_string(f);
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, f, std::move(payload)));
  }
  EXPECT_EQ(store.value()->pending_records(), 5);
  auto stats = store.value()->Compact();
  BLAZEIT_ASSERT_OK(stats.status());
  EXPECT_EQ(store.value()->pending_records(), 0);
  EXPECT_EQ(store.value()->RecordCount(kNs), 5);
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->RecordCount(kNs), 5);
}

TEST_F(StorageTest, RepairReplacesRecordInPlaceAndSurvivesReopen) {
  constexpr uint64_t kNs = 0x4E9A12;  // arbitrary namespace
  const std::string good = EncodeFloatsPayload({1.0f, 2.0f, 3.0f});
  const std::string fixed = EncodeFloatsPayload({7.0f, 8.0f});
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store.status());
    for (int64_t f = 0; f < 10; ++f) {
      BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, f, good));
    }
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }

  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  // A plain Put cannot override the indexed record (first write wins)...
  BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, 5, fixed));
  EXPECT_EQ(store.value()->GetRaw(kNs, 5).value(), good);
  // ...Repair can, immediately and durably.
  BLAZEIT_ASSERT_OK(store.value()->Repair(kNs, 5, fixed));
  EXPECT_EQ(store.value()->GetRaw(kNs, 5).value(), fixed);
  for (int64_t f = 0; f < 10; ++f) {
    if (f == 5) continue;
    EXPECT_EQ(store.value()->GetRaw(kNs, f).value(), good) << f;
  }
  // The namespace was rewritten into one segment; a fresh open resolves
  // the repaired payload too.
  EXPECT_EQ(OnlySegmentPath().empty(), false);
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->RecordCount(kNs), 10);
  EXPECT_EQ(reopened.value()->GetRaw(kNs, 5).value(), fixed);

  // Repairing an absent record degrades to a plain put.
  BLAZEIT_ASSERT_OK(reopened.value()->Repair(kNs, 99, fixed));
  EXPECT_EQ(reopened.value()->GetRaw(kNs, 99).value(), fixed);

  // Repairing the same record again wins over the first repair, across
  // a reopen too (newer repair segments sort before older ones).
  const std::string fixed2 = EncodeFloatsPayload({9.0f});
  BLAZEIT_ASSERT_OK(reopened.value()->Repair(kNs, 5, fixed2));
  EXPECT_EQ(reopened.value()->GetRaw(kNs, 5).value(), fixed2);
  auto again = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(again.status());
  EXPECT_EQ(again.value()->GetRaw(kNs, 5).value(), fixed2);
}

TEST_F(StorageTest, TargetedRepairHealsWholeNamespaceInOnePass) {
  constexpr uint64_t kNs = 0xFA57;
  const std::string good = EncodeFloatsPayload({1.0f});
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store.status());
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, 0, good));
    // Two poisoned records (CRC-valid, undecodable).
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, 1, "garbage"));
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, 2, "rubbish"));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  // Repairing record 1 rewrites the namespace and drops record 2 too —
  // one rewrite heals everything instead of one rewrite per poisoned
  // record read.
  BLAZEIT_ASSERT_OK(store.value()->Repair(kNs, 1, good));
  EXPECT_EQ(store.value()->GetRaw(kNs, 0).value(), good);
  EXPECT_EQ(store.value()->GetRaw(kNs, 1).value(), good);
  EXPECT_EQ(store.value()->GetRaw(kNs, 2).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StorageTest, StoreWideRepairDropsUndecodableRecords) {
  constexpr uint64_t kNs = 0xBAD;
  const std::string good = EncodeDoublesPayload({0.25, 0.5});
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store.status());
    for (int64_t f = 0; f < 5; ++f) {
      BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, f, good));
    }
    // CRC-valid but semantically malformed: 7 bytes decode under no
    // engine codec (not detections, not a float/double multiple).
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, 5, "garbage"));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }

  auto store = DetectionStore::Open(dir_);  // CRC scan passes
  BLAZEIT_ASSERT_OK(store.status());
  EXPECT_FALSE(store.value()->GetDoubles(kNs, 5).ok());

  auto stats = store.value()->Repair();
  BLAZEIT_ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().records_scanned, 6);
  EXPECT_EQ(stats.value().malformed_dropped, 1);
  EXPECT_EQ(stats.value().namespaces_rewritten, 1);
  // The poisoned record is now a plain miss; the good ones survive.
  EXPECT_EQ(store.value()->GetRaw(kNs, 5).status().code(),
            StatusCode::kNotFound);
  for (int64_t f = 0; f < 5; ++f) {
    EXPECT_EQ(store.value()->GetRaw(kNs, f).value(), good) << f;
  }
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->RecordCount(kNs), 5);

  // A clean store is a no-op scan.
  auto clean = reopened.value()->Repair();
  BLAZEIT_ASSERT_OK(clean.status());
  EXPECT_EQ(clean.value().malformed_dropped, 0);
  EXPECT_EQ(clean.value().namespaces_rewritten, 0);
}

TEST_F(StorageTest, PersistentDetectorRepairsCorruptRecordInPlace) {
  auto video = SyntheticVideo::Create(TaipeiConfig(), 77, 10);
  BLAZEIT_ASSERT_OK(video.status());
  SimulatedDetector inner;
  uint64_t ns = 0;
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store.status());
    CachedDetector detector(&inner, store.value().get());
    ns = DetectionNamespace(*video.value(), detector);
    // Poison frame 3 before the detector ever writes it: CRC-valid, but
    // not a decodable detections payload.
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(ns, 3, "garbage!"));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }

  std::vector<Detection> recomputed;
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store.status());
    EXPECT_FALSE(store.value()->GetDetections(ns, 3).ok());
    CachedDetector detector(&inner, store.value().get());
    // Decode fails -> recompute -> Repair in place (not a shadowed Put).
    recomputed = detector.Detect(*video.value(), 3);
    EXPECT_EQ(detector.store_misses(), 1);
    auto healed = store.value()->GetDetections(ns, 3);
    BLAZEIT_ASSERT_OK(healed.status());
    EXPECT_EQ(healed.value().size(), recomputed.size());
  }

  // The repair is durable: a third process reads the healed record as a
  // plain store hit — no warning, no recompute, ever again.
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  auto healed = store.value()->GetDetections(ns, 3);
  BLAZEIT_ASSERT_OK(healed.status());
  ASSERT_EQ(healed.value().size(), recomputed.size());
  for (size_t i = 0; i < recomputed.size(); ++i) {
    EXPECT_EQ(healed.value()[i].class_id, recomputed[i].class_id);
    EXPECT_EQ(healed.value()[i].score, recomputed[i].score);
  }
  CachedDetector detector(&inner, store.value().get());
  (void)detector.Detect(*video.value(), 3);
  EXPECT_EQ(detector.store_hits(), 1);
  EXPECT_EQ(detector.store_misses(), 0);
}

TEST_F(StorageTest, LabeledSetRecomputesStoredRowWithUnknownClass) {
  // A CRC-valid stored record whose row names no class (a writer bug):
  // the labeled set's build must recompute the frame, not count the row.
  auto video = SyntheticVideo::Create(TaipeiConfig(), 78, 10);
  BLAZEIT_ASSERT_OK(video.status());
  SimulatedDetector inner;
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store.status());
    Detection alien;
    alien.class_id = kNumClasses;
    alien.score = 0.99;
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(
        DetectionNamespace(*video.value(), inner), 4,
        EncodeDetectionsPayload({alien})));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  CachedDetector detector(&inner, store.value().get());
  const double threshold = TaipeiConfig().detection_threshold;
  LabeledSet labels(video.value().get(), &detector, threshold);
  LabeledSet reference(video.value().get(), &inner, threshold);
  for (int64_t t = 0; t < 10; ++t) {
    ExpectSameDetections(labels.DetectionsAt(t), reference.DetectionsAt(t));
  }
  for (int c = 0; c < kNumClasses; ++c) {
    EXPECT_EQ(labels.Counts(c), reference.Counts(c)) << "class " << c;
  }
  EXPECT_EQ(detector.store_misses(), 10);  // frame 4 included
}

TEST_F(StorageTest, StoreBackedDetectorHealsPoisonedRecordUnderConcurrency) {
  // Parallel frame scans and concurrent serve groups call one store-backed
  // detector from several threads. Frame 9 is poisoned in a repair-named
  // segment — the kind that sorts first, so a plain first-write-wins Put
  // could never shadow it — and eight threads then read all 64 frames.
  constexpr int64_t kFrames = 64;
  constexpr int kThreads = 8;
  auto video = SyntheticVideo::Create(TaipeiConfig(), 11, kFrames);
  BLAZEIT_ASSERT_OK(video.status());
  SimulatedDetector inner;
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  const uint64_t ns = DetectionNamespace(*video.value(), inner);
  {
    CachedDetector writer(&inner, store.value().get());
    for (int64_t t = 0; t < kFrames; ++t) {
      (void)writer.Detect(*video.value(), t);
    }
  }
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  BLAZEIT_ASSERT_OK(store.value()->Repair(ns, 9, "garbage!"));
  EXPECT_NE(OnlySegmentPath().find("-0repair-"), std::string::npos);
  // GetRaw + decode, not GetDetections: a typed Get here would already
  // mark the key for repair.
  auto poisoned = store.value()->GetRaw(ns, 9);
  BLAZEIT_ASSERT_OK(poisoned.status());
  EXPECT_FALSE(DecodeDetectionsPayload(poisoned.value()).ok());

  CachedDetector detector(&inner, store.value().get());
  std::vector<std::vector<std::vector<Detection>>> results(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int64_t t = 0; t < kFrames; ++t) {
        results[w].push_back(detector.Detect(*video.value(), t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int w = 0; w < kThreads; ++w) {
    ASSERT_EQ(results[w].size(), static_cast<size_t>(kFrames));
    for (int64_t t = 0; t < kFrames; ++t) {
      ExpectSameDetections(results[w][static_cast<size_t>(t)],
                           inner.Detect(*video.value(), t));
    }
  }
  EXPECT_GE(detector.store_misses(), 1);

  const std::vector<Detection> expected = inner.Detect(*video.value(), 9);
  auto healed = store.value()->GetDetections(ns, 9);
  BLAZEIT_ASSERT_OK(healed.status());
  ExpectSameDetections(healed.value(), expected);
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->RecordCount(ns), kFrames);
  auto durable = reopened.value()->GetDetections(ns, 9);
  BLAZEIT_ASSERT_OK(durable.status());
  ExpectSameDetections(durable.value(), expected);
}

TEST_F(StorageTest, ArtifactCacheRepairsCorruptRecordInPlace) {
  constexpr uint64_t kNs = 42;
  const uint64_t salted = HashCombine(kNs, kDerivedArtifactEpoch);
  const std::vector<float> values = {1.5f, -2.5f, 3.25f};
  {
    auto store = DetectionStore::Open(dir_);
    BLAZEIT_ASSERT_OK(store.status());
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(salted, 7, "bad"));
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }

  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  StoreArtifactCache cache(store.value().get());
  obs::Counter* repairs = obs::MetricsRegistry::Global().GetCounter(
      "store.record_repairs", obs::Stability::kStable);
  const int64_t repairs_before = repairs->value();
  std::vector<float> out;
  // Read fails (corrupt, not NotFound) and the store remembers the key...
  EXPECT_FALSE(cache.GetFrameFloats(kNs, 7, &out));
  EXPECT_EQ(cache.misses(), 1);
  // ...so the caller's recompute-and-put repairs the record in place.
  cache.PutFrameFloats(kNs, 7, values);
  EXPECT_EQ(repairs->value() - repairs_before, 1);
  EXPECT_TRUE(cache.GetFrameFloats(kNs, 7, &out));
  EXPECT_EQ(out, values);

  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  auto healed = reopened.value()->GetFloats(salted, 7);
  BLAZEIT_ASSERT_OK(healed.status());
  EXPECT_EQ(healed.value(), values);
}

TEST_F(StorageTest, CompactCarriesRepairGenerationPastStrandedSegments) {
  // Regression: Compact() used to write a *regular*-named segment even
  // when the namespace had live repair generations. A stranded older
  // repair segment (a crashed unlink) sorts before every regular name, so
  // it would shadow the compacted view and resurrect the pre-repair
  // payload. Compacting a repaired namespace must advance the repair
  // generation instead.
  constexpr uint64_t kNs = 0xDEC0DE;
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  for (int64_t f = 0; f < 10; ++f) {
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, f, "original"));
  }
  BLAZEIT_ASSERT_OK(store.value()->Flush());

  // First repair: the namespace is rewritten into repair generation 1.
  BLAZEIT_ASSERT_OK(store.value()->Repair(kNs, 5, "repaired-once"));
  const std::string gen1_segment = OnlySegmentPath();
  std::string gen1_bytes;
  {
    std::ifstream in(gen1_segment, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    gen1_bytes = buf.str();
  }

  // Second repair supersedes it (generation 2, generation 1 unlinked).
  BLAZEIT_ASSERT_OK(store.value()->Repair(kNs, 5, "repaired-twice"));
  EXPECT_EQ(store.value()->GetRaw(kNs, 5).value(), "repaired-twice");

  // A later flush gives the namespace a second segment so Compact has
  // something to merge.
  BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, 10, "late"));
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  auto stats = store.value()->Compact();
  BLAZEIT_ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().namespaces_compacted, 1);

  // Strand the generation-1 repair segment, as a failed unlink would.
  {
    std::ofstream out(gen1_segment, std::ios::binary);
    out << gen1_bytes;
  }

  // The compacted segment must still win over the stranded stale repair:
  // frame 5 resolves to the second repair, not the first.
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->GetRaw(kNs, 5).value(), "repaired-twice");
  EXPECT_EQ(reopened.value()->GetRaw(kNs, 10).value(), "late");

  // And the generation survives the round trip: a repair *after* the
  // compaction still wins over everything, across another reopen.
  BLAZEIT_ASSERT_OK(reopened.value()->Repair(kNs, 5, "repaired-thrice"));
  EXPECT_EQ(reopened.value()->GetRaw(kNs, 5).value(), "repaired-thrice");
  auto again = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(again.status());
  EXPECT_EQ(again.value()->GetRaw(kNs, 5).value(), "repaired-thrice");
}

TEST_F(StorageTest, CompactWinnersSurviveAStrandedLoserSegment) {
  // A compacted segment must sort before every segment it replaces: a
  // regular name can sort after them, and then a losing segment whose
  // unlink fails, or that a crash strands between two unlinks, serves its
  // payloads on reopen. The next repair generation sorts before every
  // regular name.
  constexpr uint64_t kNs = 0xC0FFEE;
  // Two writers with overlapping frames and different payloads, as in
  // CompactMergesSegmentsAndDropsShadowedDuplicates: the second segment is
  // published into dir_ last and loses frames 25-49 to the first.
  const std::string loser_dir = dir_ + "-writer2";
  fs::remove_all(loser_dir);
  struct Writer {
    std::string dir;
    const char* prefix;
    int64_t begin;
  };
  for (const Writer& w :
       {Writer{dir_, "first-", 0}, Writer{loser_dir, "second-", 25}}) {
    auto store = DetectionStore::Open(w.dir);
    BLAZEIT_ASSERT_OK(store.status());
    for (int64_t f = w.begin; f < w.begin + 50; ++f) {
      std::string payload = w.prefix;
      payload += std::to_string(f);
      BLAZEIT_ASSERT_OK(store.value()->PutRaw(kNs, f, std::move(payload)));
    }
    BLAZEIT_ASSERT_OK(store.value()->Flush());
  }
  std::string loser_path;
  for (const auto& entry : fs::directory_iterator(loser_dir)) {
    loser_path = (fs::path(dir_) / entry.path().filename()).string();
    fs::rename(entry.path(), loser_path);
  }
  fs::remove_all(loser_dir);
  std::string loser_bytes;
  {
    std::ifstream in(loser_path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    loser_bytes = buf.str();
  }

  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  EXPECT_EQ(store.value()->ShadowedRecords(), 25);
  EXPECT_EQ(store.value()->GetRaw(kNs, 30).value(), "first-30");
  auto stats = store.value()->Compact();
  BLAZEIT_ASSERT_OK(stats.status());
  EXPECT_EQ(stats.value().namespaces_compacted, 1);
  ASSERT_FALSE(fs::exists(loser_path));

  // Strand the loser, as a failed unlink would.
  {
    std::ofstream out(loser_path, std::ios::binary);
    out << loser_bytes;
  }

  // Every frame still resolves to the winner Compact copied; the stranded
  // loser only adds shadowed duplicates, which the next Compact drops.
  auto expect_winners = [](DetectionStore* s) {
    for (int64_t f = 0; f < 75; ++f) {
      std::string want = f < 50 ? "first-" : "second-";
      want += std::to_string(f);
      auto payload = s->GetRaw(kNs, f);
      BLAZEIT_ASSERT_OK(payload.status());
      EXPECT_EQ(payload.value(), want) << f;
    }
  };
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  EXPECT_EQ(reopened.value()->RecordCount(kNs), 75);
  EXPECT_EQ(reopened.value()->ShadowedRecords(), 50);
  ASSERT_NO_FATAL_FAILURE(expect_winners(reopened.value().get()));
  auto again = reopened.value()->Compact();
  BLAZEIT_ASSERT_OK(again.status());
  EXPECT_EQ(again.value().duplicates_dropped, 50);
  EXPECT_FALSE(fs::exists(loser_path));
  ASSERT_NO_FATAL_FAILURE(expect_winners(reopened.value().get()));
}

namespace sketchtest {

/// One detection of `class_id` centered in the unit frame.
Detection Det(int class_id, double score = 0.9) {
  Detection d;
  d.class_id = class_id;
  d.rect = {0.4, 0.4, 0.6, 0.6};
  d.score = score;
  return d;
}

}  // namespace sketchtest

TEST_F(StorageTest, SketchBuildProbeAndInvalidation) {
  constexpr uint64_t kNs = 0x5EEC;
  constexpr int64_t kFrames = 2 * kSketchBlockFrames;  // two blocks
  constexpr int64_t kBusFrame = kSketchBlockFrames + 100;
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  for (int64_t f = 0; f < kFrames; ++f) {
    std::vector<Detection> dets = {sketchtest::Det(0)};  // class 0 everywhere
    if (f == kBusFrame) dets.push_back(sketchtest::Det(1));
    BLAZEIT_ASSERT_OK(
        store.value()->PutRaw(kNs, f, EncodeDetectionsPayload(dets)));
  }
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  BLAZEIT_ASSERT_OK(store.value()->BuildSketches(kNs));

  auto infos = store.value()->ListSketches();
  BLAZEIT_ASSERT_OK(infos.status());
  ASSERT_EQ(infos.value().size(), 1u);
  EXPECT_EQ(infos.value()[0].base_ns, kNs);
  EXPECT_EQ(infos.value()[0].blocks, 2);
  EXPECT_TRUE(infos.value()[0].current);

  SketchIndex index = SketchIndex::Load(store.value().get(), kNs);
  ASSERT_TRUE(index.valid());

  // Class 1 lives only in the second block: the probe prunes the first.
  SketchProbe bus_probe;
  bus_probe.score_threshold = 0.5;
  bus_probe.requirements = {{1, 1}};
  auto ranges = index.CandidateRanges(0, kFrames, bus_probe);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, kSketchBlockFrames);
  EXPECT_EQ(ranges[0].end, kFrames);

  // Class 0 is everywhere: nothing can be pruned.
  SketchProbe car_probe;
  car_probe.score_threshold = 0.5;
  car_probe.requirements = {{0, 1}};
  auto all = index.CandidateRanges(0, kFrames, car_probe);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].begin, 0);
  EXPECT_EQ(all[0].end, kFrames);

  // An unflushed Put of a new frame makes the index stale (Load refuses —
  // conservative, never wrong answers)...
  BLAZEIT_ASSERT_OK(store.value()->PutRaw(
      kNs, kFrames, EncodeDetectionsPayload({sketchtest::Det(0)})));
  EXPECT_FALSE(SketchIndex::Load(store.value().get(), kNs).valid());
  auto stale = store.value()->ListSketches();
  BLAZEIT_ASSERT_OK(stale.status());
  ASSERT_EQ(stale.value().size(), 1u);
  EXPECT_FALSE(stale.value()[0].current);

  // ...and Flush refreshes it automatically: the namespace stays indexed.
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  SketchIndex refreshed = SketchIndex::Load(store.value().get(), kNs);
  ASSERT_TRUE(refreshed.valid());
  EXPECT_EQ(refreshed.blocks().size(), 3u);  // one more (partial) block

  // Repair rewrites a payload and refreshes the sketches eagerly: after
  // repairing away the only class-1 detection, the probe refutes every
  // block.
  BLAZEIT_ASSERT_OK(store.value()->Repair(
      kNs, kBusFrame, EncodeDetectionsPayload({sketchtest::Det(0)})));
  SketchIndex repaired = SketchIndex::Load(store.value().get(), kNs);
  ASSERT_TRUE(repaired.valid());
  EXPECT_TRUE(repaired.CandidateRanges(0, kFrames, bus_probe).empty());

  // Compact preserves the resolved view, so the sketches stay current...
  auto stats = store.value()->Compact();
  BLAZEIT_ASSERT_OK(stats.status());
  EXPECT_TRUE(SketchIndex::Load(store.value().get(), kNs).valid());

  // ...including across a reopen.
  auto reopened = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(reopened.status());
  SketchIndex persisted = SketchIndex::Load(reopened.value().get(), kNs);
  ASSERT_TRUE(persisted.valid());
  EXPECT_TRUE(persisted.CandidateRanges(0, kFrames, bus_probe).empty());

  // Dropping unindexes the namespace.
  BLAZEIT_ASSERT_OK(reopened.value()->DropSketches(kNs));
  EXPECT_FALSE(SketchIndex::Load(reopened.value().get(), kNs).valid());
  auto dropped = reopened.value()->ListSketches();
  BLAZEIT_ASSERT_OK(dropped.status());
  EXPECT_TRUE(dropped.value().empty());
}

TEST_F(StorageTest, FlushRefreshedSketchesMatchAFreshBuild) {
  constexpr uint64_t kNs = 0xA99E;
  constexpr int64_t kFrames = 3 * kSketchBlockFrames;  // three full blocks
  constexpr int64_t kHole = 7;  // a gap in block 0, re-filled later
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  for (int64_t f = 0; f < kFrames; ++f) {
    if (f == kHole) continue;
    std::vector<Detection> dets = {sketchtest::Det(0)};
    if (f == 5) dets.push_back(sketchtest::Det(1));  // prefix-only class
    BLAZEIT_ASSERT_OK(
        store.value()->PutRaw(kNs, f, EncodeDetectionsPayload(dets)));
  }
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  BLAZEIT_ASSERT_OK(store.value()->BuildSketches(kNs));

  // The sketches a flush leaves behind must be current and equal to a
  // from-scratch build, block by block and in base record count.
  auto expect_matches_fresh_build = [&](size_t blocks) {
    SketchIndex flushed = SketchIndex::Load(store.value().get(), kNs);
    ASSERT_TRUE(flushed.valid());
    ASSERT_EQ(flushed.blocks().size(), blocks);
    BLAZEIT_ASSERT_OK(store.value()->BuildSketches(kNs));
    SketchIndex fresh = SketchIndex::Load(store.value().get(), kNs);
    ASSERT_TRUE(fresh.valid());
    ASSERT_EQ(fresh.blocks().size(), flushed.blocks().size());
    for (size_t b = 0; b < fresh.blocks().size(); ++b) {
      EXPECT_TRUE(flushed.blocks()[b] == fresh.blocks()[b]) << "block " << b;
    }
    EXPECT_EQ(flushed.meta().base_record_count,
              fresh.meta().base_record_count);
  };

  // An append past the tail adds a fourth, partial block.
  for (int64_t f = kFrames; f < kFrames + 10; ++f) {
    BLAZEIT_ASSERT_OK(store.value()->PutRaw(
        kNs, f, EncodeDetectionsPayload({sketchtest::Det(0)})));
  }
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(4));

  // Filling the hole changes a block below the tail.
  BLAZEIT_ASSERT_OK(store.value()->PutRaw(
      kNs, kHole, EncodeDetectionsPayload({sketchtest::Det(0)})));
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  ASSERT_NO_FATAL_FAILURE(expect_matches_fresh_build(4));
}

TEST_F(StorageTest, SketchRefusesNonDetectionsNamespace) {
  constexpr uint64_t kNs = 0xF10A7;
  auto store = DetectionStore::Open(dir_);
  BLAZEIT_ASSERT_OK(store.status());
  BLAZEIT_ASSERT_OK(
      store.value()->PutRaw(kNs, 0, EncodeFloatsPayload({1.0f, 2.0f})));
  BLAZEIT_ASSERT_OK(store.value()->Flush());
  Status built = store.value()->BuildSketches(kNs);
  EXPECT_EQ(built.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.value()->BuildSketches(0x404).code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, SketchPayloadCodecRoundTrip) {
  SegmentSketch sketch;
  sketch.first_frame = 1024;
  sketch.covered = kSketchBlockFrames;
  sketch.frames_present = kSketchBlockFrames;
  sketch.frames_with_any = 100;
  ClassSketch cls;
  cls.class_id = 2;
  for (int b = 0; b < kSketchScoreBuckets; ++b) {
    cls.frames_ge1[b] = 100 - b;
    cls.max_count_ge[b] = 7;
  }
  cls.min_score = 0.25;
  cls.max_score = 0.875;
  cls.min_cx = 0.1;
  cls.max_cx = 0.9;
  cls.min_cy = 0.2;
  cls.max_cy = 0.8;
  cls.min_area = 0.01;
  cls.max_area = 0.04;
  sketch.classes.push_back(cls);
  sketch.class_bitmap = 1u << 2;
  auto decoded = DecodeSegmentSketchPayload(EncodeSegmentSketchPayload(sketch));
  BLAZEIT_ASSERT_OK(decoded);
  EXPECT_TRUE(decoded.value() == sketch);

  SketchMeta meta;
  meta.base_ns = 0xABCD;
  meta.base_record_count = 12345;
  meta.block_count = 25;
  auto meta_decoded = DecodeSketchMetaPayload(EncodeSketchMetaPayload(meta));
  BLAZEIT_ASSERT_OK(meta_decoded);
  EXPECT_EQ(meta_decoded.value().base_ns, meta.base_ns);
  EXPECT_EQ(meta_decoded.value().base_record_count, meta.base_record_count);
  EXPECT_EQ(meta_decoded.value().block_count, meta.block_count);

  // Truncations and garbage are rejected, never misdecoded.
  const std::string bytes = EncodeSegmentSketchPayload(sketch);
  for (size_t len : {size_t{0}, size_t{3}, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeSegmentSketchPayload(bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(DecodeSketchMetaPayload(bytes).ok());
  EXPECT_FALSE(DecodeSegmentSketchPayload("garbage-bytes").ok());
}

TEST_F(StorageTest, DetectorNoiseChangesNamespace) {
  DetectorNoiseConfig noisy;
  noisy.box_jitter = 0.05;
  SimulatedDetector a, b(noisy);
  EXPECT_NE(a.ParamsFingerprint(), b.ParamsFingerprint());
  SimulatedDetector same;
  EXPECT_EQ(a.ParamsFingerprint(), same.ParamsFingerprint());
}

}  // namespace
}  // namespace blazeit
