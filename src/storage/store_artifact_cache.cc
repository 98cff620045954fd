#include "storage/store_artifact_cache.h"

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"

namespace blazeit {

namespace {

/// Callers' namespaces fingerprint the *inputs*; salt in the code epoch so
/// artifacts computed by older implementations are never replayed.
uint64_t Salted(uint64_t ns) {
  return HashCombine(ns, kDerivedArtifactEpoch);
}

obs::Counter* TierHits() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.hits{tier=persistent}", obs::Stability::kStable);
  return c;
}

obs::Counter* TierMisses() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.misses{tier=persistent}", obs::Stability::kStable);
  return c;
}

void WarnIfFailed(const Status& status) {
  if (!status.ok()) {
    BLAZEIT_LOG(kWarning) << "artifact cache write failed: "
                          << status.ToString();
  }
}

}  // namespace

template <typename T>
bool StoreArtifactCache::CountGet(Result<std::vector<T>> values,
                                  std::vector<T>* out) {
  if (!values.ok()) {
    ++misses_;
    TierMisses()->Add();
    return false;
  }
  ++hits_;
  TierHits()->Add();
  *out = std::move(values).value();
  return true;
}

bool StoreArtifactCache::GetFrameFloats(uint64_t ns, int64_t frame,
                                        std::vector<float>* out) {
  return CountGet(store_->GetFloats(Salted(ns), frame), out);
}

void StoreArtifactCache::PutFrameFloats(uint64_t ns, int64_t frame,
                                        const std::vector<float>& values) {
  WarnIfFailed(store_->PutFloats(Salted(ns), frame, values));
}

bool StoreArtifactCache::GetFrameDoubles(uint64_t ns, int64_t frame,
                                         std::vector<double>* out) {
  return CountGet(store_->GetDoubles(Salted(ns), frame), out);
}

void StoreArtifactCache::PutFrameDoubles(uint64_t ns, int64_t frame,
                                         const std::vector<double>& values) {
  WarnIfFailed(store_->PutDoubles(Salted(ns), frame, values));
}

bool StoreArtifactCache::GetBlob(uint64_t ns, std::vector<float>* out) {
  return GetFrameFloats(ns, kBlobFrame, out);
}

void StoreArtifactCache::PutBlob(uint64_t ns,
                                 const std::vector<float>& values) {
  PutFrameFloats(ns, kBlobFrame, values);
}

}  // namespace blazeit
