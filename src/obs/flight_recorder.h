#ifndef BLAZEIT_OBS_FLIGHT_RECORDER_H_
#define BLAZEIT_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/mutex.h"

namespace blazeit {
namespace obs {

/// One completed query's retained summary: identity (the correlation id
/// shown in /tracez and threaded through the log lines), outcome, the
/// chosen plan, wall/simulated time, and the lifecycle trace when the
/// engine collected one. Small by construction — strings plus a
/// shared_ptr to the trace the query already allocated — so retaining
/// the last few hundred costs a bounded few hundred KB.
struct FlightRecord {
  /// Per-query correlation id (FlightRecorder::NextCorrelationId()).
  int64_t correlation_id = -1;
  /// Global record sequence; higher = more recent. Assigned by Record().
  int64_t sequence = -1;
  /// Serving tenant; empty for direct engine.Execute calls.
  std::string client;
  std::string query;
  std::string plan;
  /// "full" / "degraded-sampling" / "degraded-scan"; empty when unknown.
  std::string accuracy_tier;
  bool ok = true;
  bool degraded = false;
  std::string error;
  /// Wall-clock execution time observed by the completion path.
  double wall_ms = 0.0;
  /// Simulated cost (CostMeter::TotalSeconds()).
  double cost_seconds = 0.0;
  /// The query's span tree (null when tracing was off).
  std::shared_ptr<QueryTrace> trace;

  /// One JSON object; includes the trace's structure signature lines.
  std::string ToJson() const;
};

/// Always-on flight recorder behind /tracez: a fixed-capacity ring
/// buffer retaining the last `capacity` completed queries, plus a
/// separate "slowest K" reservoir keyed by wall time so a burst of fast
/// queries cannot evict the interesting outliers.
///
/// Record() is O(log K) under one mutex — a sequence increment, one slot
/// overwrite, at most one reservoir heap update — and memory is bounded
/// at construction, so the recorder stays on in serving mode (it sees
/// one Record per completed query). It only *observes* completed queries
/// (outputs and simulated costs never flow through it), which is what
/// keeps every determinism suite bit-identical with it running.
///
/// Thread-safe: Record and the snapshot calls may race freely; each
/// snapshot is taken under the mutex, so it is point-in-time.
class FlightRecorder {
 public:
  struct Options {
    /// Retained completed queries (clamped to at least 1).
    int64_t capacity = 256;
    /// Slowest-by-wall-time reservoir size.
    int64_t slowest_k = 16;
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(Options options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder the engine and serving layer feed.
  static FlightRecorder& Global();

  /// Process-wide monotonic correlation-id source (also usable without a
  /// recorder, e.g. by the log-field threading).
  static int64_t NextCorrelationId();

  void Record(FlightRecord record);

  /// Retained records, most recent first.
  std::vector<FlightRecord> Snapshot() const;
  /// The slowest-by-wall-time retained records, slowest first.
  std::vector<FlightRecord> SlowestSnapshot() const;

  /// Lifetime count of Record() calls (>= retained count).
  int64_t total_recorded() const;
  const Options& options() const { return options_; }

  /// {"total_recorded":N,"capacity":N,"recent":[...],"slowest":[...]}
  std::string ToJson() const;

 private:
  Options options_;

  mutable util::Mutex mu_;
  /// Records so far; the next Record() takes this as its sequence.
  int64_t recorded_ BLAZEIT_GUARDED_BY(mu_) = 0;
  /// Slot (sequence % capacity) holds that record; overwritten in place.
  std::vector<FlightRecord> ring_ BLAZEIT_GUARDED_BY(mu_);
  /// Min-heap by wall_ms (front = fastest of the retained slow set).
  std::vector<FlightRecord> slowest_ BLAZEIT_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace blazeit

#endif  // BLAZEIT_OBS_FLIGHT_RECORDER_H_
