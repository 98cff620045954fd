#include "core/shared_sweep.h"

#include "obs/metrics.h"

namespace blazeit {

namespace {

/// Registered kUnstable: which query of a concurrent batch group hits the
/// shared tier (vs. computing and promoting) depends on scheduling — the
/// values are scheduling-dependent even though query outputs are not (the
/// shared value is bit-identical to recomputation by contract).
obs::Counter* SharedHits() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.hits{tier=shared}", obs::Stability::kUnstable);
  return c;
}

obs::Counter* SharedPromotions() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "cache.promotions{tier=shared}", obs::Stability::kUnstable);
  return c;
}

}  // namespace

int64_t SharedSweepCache::frame_float_records() const {
  util::MutexLock lock(mu_);
  return static_cast<int64_t>(floats_.size());
}

int64_t SharedSweepCache::blob_records() const {
  util::MutexLock lock(mu_);
  return static_cast<int64_t>(blobs_.size());
}

bool SharedSweepCache::GetFloats(uint64_t ns, int64_t frame,
                                 std::vector<float>* out) const {
  util::MutexLock lock(mu_);
  auto it = floats_.find({ns, frame});
  if (it == floats_.end()) return false;
  *out = it->second;
  return true;
}

void SharedSweepCache::PutFloats(uint64_t ns, int64_t frame,
                                 const std::vector<float>& v) {
  util::MutexLock lock(mu_);
  floats_.emplace(Key{ns, frame}, v);  // first write wins
}

bool SharedSweepCache::GetDoubles(uint64_t ns, int64_t frame,
                                  std::vector<double>* out) const {
  util::MutexLock lock(mu_);
  auto it = doubles_.find({ns, frame});
  if (it == doubles_.end()) return false;
  *out = it->second;
  return true;
}

void SharedSweepCache::PutDoubles(uint64_t ns, int64_t frame,
                                  const std::vector<double>& v) {
  util::MutexLock lock(mu_);
  doubles_.emplace(Key{ns, frame}, v);
}

bool SharedSweepCache::GetBlob(uint64_t ns, std::vector<float>* out) const {
  util::MutexLock lock(mu_);
  auto it = blobs_.find(ns);
  if (it == blobs_.end()) return false;
  *out = it->second;
  return true;
}

void SharedSweepCache::PutBlob(uint64_t ns, const std::vector<float>& v) {
  util::MutexLock lock(mu_);
  blobs_.emplace(ns, v);
}

bool SweepCacheView::GetFrameFloats(uint64_t ns, int64_t frame,
                                    std::vector<float>* out) {
  bool hit = shared_ != nullptr && shared_->GetFloats(ns, frame, out);
  if (hit) {
    ++stats_.shared_nn_frames;
    SharedHits()->Add();
  } else if (underlying_ != nullptr &&
             underlying_->GetFrameFloats(ns, frame, out)) {
    hit = true;
    // Promote so later queries of the window hit the memory tier; the
    // persistent value is bit-identical to recomputation by contract.
    if (shared_ != nullptr) {
      shared_->PutFloats(ns, frame, *out);
      SharedPromotions()->Add();
    }
  }
  ++(hit ? stats_.frame_float_hits : stats_.frame_float_misses);
  return hit;
}

void SweepCacheView::PutFrameFloats(uint64_t ns, int64_t frame,
                                    const std::vector<float>& values) {
  if (shared_ != nullptr) shared_->PutFloats(ns, frame, values);
  if (underlying_ != nullptr) underlying_->PutFrameFloats(ns, frame, values);
}

bool SweepCacheView::GetFrameDoubles(uint64_t ns, int64_t frame,
                                     std::vector<double>* out) {
  bool hit = shared_ != nullptr && shared_->GetDoubles(ns, frame, out);
  if (hit) {
    ++stats_.shared_filter_frames;
    SharedHits()->Add();
  } else if (underlying_ != nullptr &&
             underlying_->GetFrameDoubles(ns, frame, out)) {
    hit = true;
    if (shared_ != nullptr) {
      shared_->PutDoubles(ns, frame, *out);
      SharedPromotions()->Add();
    }
  }
  ++(hit ? stats_.frame_double_hits : stats_.frame_double_misses);
  return hit;
}

void SweepCacheView::PutFrameDoubles(uint64_t ns, int64_t frame,
                                     const std::vector<double>& values) {
  if (shared_ != nullptr) shared_->PutDoubles(ns, frame, values);
  if (underlying_ != nullptr) underlying_->PutFrameDoubles(ns, frame, values);
}

bool SweepCacheView::GetBlob(uint64_t ns, std::vector<float>* out) {
  bool hit = shared_ != nullptr && shared_->GetBlob(ns, out);
  if (hit) {
    ++stats_.shared_models;
    SharedHits()->Add();
  } else if (underlying_ != nullptr && underlying_->GetBlob(ns, out)) {
    hit = true;
    if (shared_ != nullptr) {
      shared_->PutBlob(ns, *out);
      SharedPromotions()->Add();
    }
  }
  ++(hit ? stats_.blob_hits : stats_.blob_misses);
  return hit;
}

void SweepCacheView::PutBlob(uint64_t ns, const std::vector<float>& values) {
  if (shared_ != nullptr) shared_->PutBlob(ns, values);
  if (underlying_ != nullptr) underlying_->PutBlob(ns, values);
}

}  // namespace blazeit
