// Measurement from outside the library: an in-memory span log for the
// driver's own calls, and timing decorators for the two public seams the
// traced run wraps (StreamData::artifact_cache and StreamData::detector).
// Nothing here changes what the library computes: the decorators forward
// every call unchanged and only count and time it.
#ifndef PERFBENCH_DRIVER_PROBES_H_
#define PERFBENCH_DRIVER_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "util/artifact_cache.h"

namespace perfbench {

inline int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed interval on the steady clock. `parent` indexes the span log
/// (-1 for roots); `query` tags the suite/schedule query the span belongs
/// to (-1 for none).
struct SpanRecord {
  std::string name;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int query = -1;
};

/// Spans kept in memory and written once when the driver exits. Used from
/// the driving thread only. A disabled log records nothing, so call sites
/// need not branch on whether the run is traced.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int Open(const char* name, int parent, int query = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, SteadyNs(), 0, query});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = SteadyNs();
  }
  /// Adds an already-finished span (the library's report spans, shifted
  /// onto the steady clock).
  void Add(SpanRecord span) {
    if (enabled_) spans_.push_back(std::move(span));
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1, int query = -1)
      : log_(log), index_(log->Open(name, parent, query)) {}
  ~ScopedSpan() { log_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

/// Call count and busy time of one seam, safe to bump from pool workers.
struct SeamCounter {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> ns{0};

  void Record(int64_t started_ns, bool hit) {
    calls.fetch_add(1, std::memory_order_relaxed);
    if (hit) hits.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(SteadyNs() - started_ns, std::memory_order_relaxed);
  }
};

/// Times every artifact Get and Put that reaches the store. Counting is
/// switched on only for traced passes; otherwise calls pass straight
/// through.
class TimedArtifactCache final : public blazeit::ArtifactCache {
 public:
  explicit TimedArtifactCache(blazeit::ArtifactCache* inner) : inner_(inner) {}

  void set_counting(bool on) { counting_.store(on, std::memory_order_relaxed); }
  const SeamCounter& gets() const { return gets_; }
  const SeamCounter& puts() const { return puts_; }

  bool GetFrameFloats(uint64_t ns, int64_t frame,
                      std::vector<float>* out) override {
    return TimeGet([&] { return inner_->GetFrameFloats(ns, frame, out); });
  }
  void PutFrameFloats(uint64_t ns, int64_t frame,
                      const std::vector<float>& values) override {
    TimePut([&] { inner_->PutFrameFloats(ns, frame, values); });
  }
  bool GetFrameDoubles(uint64_t ns, int64_t frame,
                       std::vector<double>* out) override {
    return TimeGet([&] { return inner_->GetFrameDoubles(ns, frame, out); });
  }
  void PutFrameDoubles(uint64_t ns, int64_t frame,
                       const std::vector<double>& values) override {
    TimePut([&] { inner_->PutFrameDoubles(ns, frame, values); });
  }
  bool GetBlob(uint64_t ns, std::vector<float>* out) override {
    return TimeGet([&] { return inner_->GetBlob(ns, out); });
  }
  void PutBlob(uint64_t ns, const std::vector<float>& values) override {
    TimePut([&] { inner_->PutBlob(ns, values); });
  }

 private:
  template <typename Fn>
  bool TimeGet(Fn&& fn) {
    if (!counting_.load(std::memory_order_relaxed)) return fn();
    const int64_t started = SteadyNs();
    const bool hit = fn();
    gets_.Record(started, hit);
    return hit;
  }
  template <typename Fn>
  void TimePut(Fn&& fn) {
    if (!counting_.load(std::memory_order_relaxed)) return fn();
    const int64_t started = SteadyNs();
    fn();
    puts_.Record(started, false);
  }

  blazeit::ArtifactCache* inner_;
  std::atomic<bool> counting_{false};
  SeamCounter gets_;
  SeamCounter puts_;
};

/// Times every call into a stream's memoizing detector. Owns the wrapped
/// detector, because it takes that detector's place in StreamData.
class TimedDetector final : public blazeit::ObjectDetector {
 public:
  explicit TimedDetector(std::unique_ptr<blazeit::ObjectDetector> inner)
      : inner_(std::move(inner)) {}

  void set_counting(bool on) { counting_.store(on, std::memory_order_relaxed); }
  const SeamCounter& detects() const { return detects_; }

  std::vector<blazeit::Detection> Detect(const blazeit::SyntheticVideo& video,
                                         int64_t frame) const override {
    if (!counting_.load(std::memory_order_relaxed)) {
      return inner_->Detect(video, frame);
    }
    const int64_t started = SteadyNs();
    std::vector<blazeit::Detection> out = inner_->Detect(video, frame);
    detects_.Record(started, false);
    return out;
  }
  std::string name() const override { return inner_->name(); }
  uint64_t ParamsFingerprint() const override {
    return inner_->ParamsFingerprint();
  }

 private:
  std::unique_ptr<blazeit::ObjectDetector> inner_;
  std::atomic<bool> counting_{false};
  mutable SeamCounter detects_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PROBES_H_
