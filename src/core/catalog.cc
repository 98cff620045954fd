#include "core/catalog.h"

#include "util/string_util.h"

namespace blazeit {

Status VideoCatalog::EnableDetectionStore(const std::string& dir) {
  if (store_ != nullptr) {
    return Status::FailedPrecondition(
        StrFormat("detection store already enabled at '%s'",
                  store_->dir().c_str()));
  }
  auto store = DetectionStore::Open(dir);
  BLAZEIT_RETURN_NOT_OK(store.status());
  store_ = std::move(store).value();
  artifact_cache_ = std::make_unique<StoreArtifactCache>(store_.get());
  // Streams added before the store was enabled keep their process-local
  // caches; only new streams read/write the store.
  return Status::OK();
}

Status VideoCatalog::FlushDetectionStore() {
  if (store_ == nullptr) return Status::OK();
  return store_->Flush();
}

Status VideoCatalog::AddStream(const StreamConfig& config, DayLengths lengths,
                               DetectorNoiseConfig detector_noise) {
  if (streams_.count(config.name)) {
    return Status::InvalidArgument(
        StrFormat("stream '%s' already registered", config.name.c_str()));
  }
  auto data = std::make_unique<StreamData>();
  data->config = config;

  auto train = SyntheticVideo::Create(config, kTrainDaySeed, lengths.train);
  BLAZEIT_RETURN_NOT_OK(train.status());
  data->train_day = std::move(train).value();

  auto held = SyntheticVideo::Create(config, kThresholdDaySeed,
                                     lengths.held_out);
  BLAZEIT_RETURN_NOT_OK(held.status());
  data->held_out_day = std::move(held).value();

  auto test = SyntheticVideo::Create(config, kTestDaySeed, lengths.test);
  BLAZEIT_RETURN_NOT_OK(test.status());
  data->test_day = std::move(test).value();

  data->detector_impl = std::make_unique<SimulatedDetector>(detector_noise);
  data->detector = std::make_unique<CachedDetector>(data->detector_impl.get(),
                                                    store_.get());
  if (store_ != nullptr) {
    data->detection_store = store_.get();
    data->test_detections_ns =
        DetectionNamespace(*data->test_day, *data->detector_impl);
    data->artifact_cache = artifact_cache_.get();
  }

  data->train_labels = std::make_unique<LabeledSet>(
      data->train_day.get(), data->detector.get(), config.detection_threshold);
  data->held_out_labels = std::make_unique<LabeledSet>(
      data->held_out_day.get(), data->detector.get(),
      config.detection_threshold);
  data->test_labels = std::make_unique<LabeledSet>(
      data->test_day.get(), data->detector.get(), config.detection_threshold);

  streams_[config.name] = std::move(data);
  return Status::OK();
}

Result<StreamData*> VideoCatalog::GetStream(const std::string& name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound(
        StrFormat("stream '%s' not registered", name.c_str()));
  }
  return it->second.get();
}

std::vector<std::string> VideoCatalog::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, _] : streams_) names.push_back(name);
  return names;
}

}  // namespace blazeit
