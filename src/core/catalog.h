#ifndef BLAZEIT_CORE_CATALOG_H_
#define BLAZEIT_CORE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/labeled_set.h"
#include "detect/cached_detector.h"
#include "detect/simulated_detector.h"
#include "storage/detection_store.h"
#include "storage/store_artifact_cache.h"
#include "util/artifact_cache.h"
#include "util/status.h"
#include "video/datasets.h"
#include "video/synthetic_video.h"

namespace blazeit {

/// Everything BlazeIt holds per registered stream: three generated days
/// (train / threshold / test, the paper's protocol), the configured object
/// detection method, and the labeled sets over each day.
struct StreamData {
  StreamConfig config;
  std::unique_ptr<SyntheticVideo> train_day;
  std::unique_ptr<SyntheticVideo> held_out_day;
  std::unique_ptr<SyntheticVideo> test_day;
  std::unique_ptr<SimulatedDetector> detector_impl;
  /// CachedDetector over detector_impl, reading through the catalog's
  /// detection store when one is enabled. It keeps no copy: each day's
  /// detections live in its labeled set below, which runs this detector
  /// once per frame on its first read.
  std::unique_ptr<ObjectDetector> detector;
  std::unique_ptr<LabeledSet> train_labels;
  std::unique_ptr<LabeledSet> held_out_labels;
  /// Labeled set of the test day = the detector's output replayed during
  /// evaluation; executors *charge* detection cost per logical access.
  std::unique_ptr<LabeledSet> test_labels;
  /// Persistent cache for specialized-NN artifacts; nullptr unless the
  /// catalog has a detection store enabled. Executors pass it into
  /// SpecializedNNConfig::cache. Not owned (lives in the catalog).
  ArtifactCache* artifact_cache = nullptr;
  /// The store behind the detector (nullptr without persistence) and the
  /// namespace the test day's detections live under — where the executors
  /// look for per-segment sketches (storage/segment_sketch.h) when
  /// EngineOptions::use_store_index is on. Not owned (lives in the
  /// catalog).
  DetectionStore* detection_store = nullptr;
  uint64_t test_detections_ns = 0;
};

/// Number of frames generated for each of a stream's three days.
struct DayLengths {
  int64_t train = kDefaultTrainFrames;
  int64_t held_out = kDefaultHeldOutFrames;
  int64_t test = kDefaultTestFrames;
};

/// Registry of streams, the FROM-clause namespace of FrameQL.
class VideoCatalog {
 public:
  /// Generates the three days of the stream and registers it. Fails if a
  /// stream of the same name exists or the config is invalid.
  Status AddStream(const StreamConfig& config,
                   DayLengths lengths = DayLengths(),
                   DetectorNoiseConfig detector_noise = DetectorNoiseConfig());

  /// Backs all subsequently added streams with a persistent detection
  /// store in `dir` (created if missing): detections and specialized-NN
  /// artifacts are read through from disk and written back, so repeated
  /// runs skip the expensive oracle passes. Corrupt, truncated, or
  /// version-skewed store files fail this call with a descriptive Status.
  /// Call before AddStream; query outputs and simulated costs are
  /// identical with or without a store (see store_invariance_test).
  Status EnableDetectionStore(const std::string& dir);

  /// The store enabled by EnableDetectionStore, or nullptr.
  DetectionStore* detection_store() { return store_.get(); }

  /// Persists pending store records now (also happens on destruction).
  Status FlushDetectionStore();

  Result<StreamData*> GetStream(const std::string& name);

  std::vector<std::string> StreamNames() const;
  bool Contains(const std::string& name) const {
    return streams_.count(name) > 0;
  }

 private:
  // Declared before streams_ so detectors referencing the store are
  // destroyed first.
  std::unique_ptr<DetectionStore> store_;
  std::unique_ptr<StoreArtifactCache> artifact_cache_;
  std::map<std::string, std::unique_ptr<StreamData>> streams_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_CATALOG_H_
