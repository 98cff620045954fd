#include "core/shared_sweep.h"

#include <algorithm>
#include <type_traits>

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
  int64_t records = 0;
  for (const auto& [ns, rows] : std::get<RowMap<float>>(rows_)) {
    records += rows.count;
  }
  return records;
}

int64_t SharedSweepCache::blob_records() const {
  util::MutexLock lock(mu_);
  return static_cast<int64_t>(blobs_.size());
}

template <typename T>
void SharedSweepCache::ReadRun(uint64_t ns, const int64_t* frames,
                               size_t count, size_t width, T* out,
                               std::vector<size_t>* miss) const {
  util::MutexLock lock(mu_);
  const RowMap<T>& map = std::get<RowMap<T>>(rows_);
  const auto it = map.find(ns);
  if (it == map.end() || it->second.width != width) {
    for (size_t i = 0; i < count; ++i) miss->push_back(i);
    return;
  }
  const Rows<T>& rows = it->second;
  for (size_t i = 0; i < count; ++i) {
    const int64_t frame = frames[i];
    if (frame < 0 || static_cast<size_t>(frame) >= rows.present.size() ||
        !rows.present[static_cast<size_t>(frame)]) {
      miss->push_back(i);
      continue;
    }
    const T* row = rows.values.data() + static_cast<size_t>(frame) * width;
    std::copy(row, row + width, out + i * width);
  }
}

template <typename T>
void SharedSweepCache::WriteRun(uint64_t ns, const int64_t* frames,
                                size_t count, size_t width, const T* rows) {
  if (width == 0) return;
  util::MutexLock lock(mu_);
  Rows<T>& dst = std::get<RowMap<T>>(rows_)[ns];
  if (dst.width == 0) dst.width = width;
  if (dst.width != width) return;
  for (size_t i = 0; i < count; ++i) {
    if (frames[i] < 0) continue;
    const size_t frame = static_cast<size_t>(frames[i]);
    if (frame >= dst.present.size()) {
      dst.present.resize(frame + 1, 0);
      dst.values.resize((frame + 1) * width);
    }
    if (dst.present[frame]) continue;  // first write wins
    std::copy(rows + i * width, rows + (i + 1) * width,
              dst.values.begin() + static_cast<std::ptrdiff_t>(frame * width));
    dst.present[frame] = 1;
    ++dst.count;
  }
}

template <typename T>
size_t SharedSweepCache::RowWidth(uint64_t ns) const {
  util::MutexLock lock(mu_);
  const RowMap<T>& map = std::get<RowMap<T>>(rows_);
  const auto it = map.find(ns);
  return it == map.end() ? 0 : it->second.width;
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

template <typename T>
void SweepCacheView::Count(int64_t shared, int64_t hits, int64_t misses) {
  if constexpr (std::is_same_v<T, float>) {
    stats_.shared_nn_frames += shared;
    stats_.frame_float_hits += hits;
    stats_.frame_float_misses += misses;
  } else {
    stats_.shared_filter_frames += shared;
    stats_.frame_double_hits += hits;
    stats_.frame_double_misses += misses;
  }
  if (shared > 0) SharedHits()->Add(shared);
}

template <typename T>
void SweepCacheView::Promote(uint64_t ns, const int64_t* frames, size_t count,
                             size_t width, const T* rows) {
  // The persistent values are bit-identical to recomputation by contract;
  // promoting them keeps the rest of the window in memory.
  if (shared_ == nullptr || count == 0) return;
  shared_->WriteRun(ns, frames, count, width, rows);
  SharedPromotions()->Add(static_cast<int64_t>(count));
}

template <typename T>
void SweepCacheView::ReadRun(uint64_t ns, const int64_t* frames, size_t count,
                             size_t width, T* out,
                             std::vector<size_t>* miss) {
  const size_t first = miss->size();
  if (shared_ != nullptr) {
    shared_->ReadRun(ns, frames, count, width, out, miss);
  } else {
    for (size_t i = 0; i < count; ++i) miss->push_back(i);
  }
  const size_t shared_hits = count - (miss->size() - first);
  if (underlying_ != nullptr && miss->size() > first) {
    // The shared tier's misses, read from the persistent tier as one run.
    std::vector<int64_t> rest;
    rest.reserve(miss->size() - first);
    for (size_t m = first; m < miss->size(); ++m) {
      rest.push_back(frames[(*miss)[m]]);
    }
    std::vector<T> rows(rest.size() * width);
    std::vector<size_t> rest_miss;
    if constexpr (std::is_same_v<T, float>) {
      underlying_->GetFrameFloatsRun(ns, rest, width, rows.data(), &rest_miss);
    } else {
      underlying_->GetFrameDoublesRun(ns, rest, width, rows.data(),
                                      &rest_miss);
    }
    // Hits go to their slots of `out` and are compacted to the front of
    // rest/rows for the promotion; misses stay in `miss`, in order.
    size_t kept = first;
    size_t hits = 0;
    size_t next_miss = 0;
    for (size_t k = 0; k < rest.size(); ++k) {
      const size_t slot = (*miss)[first + k];
      if (next_miss < rest_miss.size() && rest_miss[next_miss] == k) {
        ++next_miss;
        (*miss)[kept++] = slot;
        continue;
      }
      const T* row = rows.data() + k * width;
      std::copy(row, row + width, out + slot * width);
      rest[hits] = rest[k];
      std::copy(row, row + width, rows.data() + hits * width);
      ++hits;
    }
    miss->resize(kept);
    Promote(ns, rest.data(), hits, width, rows.data());
  }
  const size_t misses = miss->size() - first;
  Count<T>(static_cast<int64_t>(shared_hits),
           static_cast<int64_t>(count - misses), static_cast<int64_t>(misses));
}

template <typename T>
bool SweepCacheView::GetRow(uint64_t ns, int64_t frame, std::vector<T>* out) {
  const size_t width = shared_ != nullptr ? shared_->RowWidth<T>(ns) : 0;
  if (width != 0) {
    out->resize(width);
    std::vector<size_t> miss;
    ReadRun(ns, &frame, 1, width, out->data(), &miss);
    return miss.empty();
  }
  // Nothing of `ns` is resident, so there is no width to read a run at:
  // the persistent row comes back whole.
  bool hit = false;
  if (underlying_ != nullptr) {
    if constexpr (std::is_same_v<T, float>) {
      hit = underlying_->GetFrameFloats(ns, frame, out);
    } else {
      hit = underlying_->GetFrameDoubles(ns, frame, out);
    }
  }
  if (hit) Promote(ns, &frame, 1, out->size(), out->data());
  Count<T>(0, hit ? 1 : 0, hit ? 0 : 1);
  return hit;
}

template <typename T>
void SweepCacheView::PutRow(uint64_t ns, int64_t frame,
                            const std::vector<T>& values) {
  if (shared_ != nullptr) {
    shared_->WriteRun(ns, &frame, 1, values.size(), values.data());
  }
  if (underlying_ == nullptr) return;
  if constexpr (std::is_same_v<T, float>) {
    underlying_->PutFrameFloats(ns, frame, values);
  } else {
    underlying_->PutFrameDoubles(ns, frame, values);
  }
}

bool SweepCacheView::GetFrameFloats(uint64_t ns, int64_t frame,
                                    std::vector<float>* out) {
  return GetRow(ns, frame, out);
}

void SweepCacheView::PutFrameFloats(uint64_t ns, int64_t frame,
                                    const std::vector<float>& values) {
  PutRow(ns, frame, values);
}

bool SweepCacheView::GetFrameDoubles(uint64_t ns, int64_t frame,
                                     std::vector<double>* out) {
  return GetRow(ns, frame, out);
}

void SweepCacheView::PutFrameDoubles(uint64_t ns, int64_t frame,
                                     const std::vector<double>& values) {
  PutRow(ns, frame, values);
}

void SweepCacheView::GetFrameFloatsRun(uint64_t ns,
                                       const std::vector<int64_t>& frames,
                                       size_t width, float* out,
                                       std::vector<size_t>* miss) {
  ReadRun(ns, frames.data(), frames.size(), width, out, miss);
}

void SweepCacheView::GetFrameDoublesRun(uint64_t ns,
                                        const std::vector<int64_t>& frames,
                                        size_t width, double* out,
                                        std::vector<size_t>* miss) {
  ReadRun(ns, frames.data(), frames.size(), width, out, miss);
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
