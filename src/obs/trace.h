#ifndef BLAZEIT_OBS_TRACE_H_
#define BLAZEIT_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace blazeit {

class CostMeter;  // sim/cost_model.h

namespace obs {

/// One query's lifecycle trace: a tree of scoped spans
/// (parse -> analyze -> execute:<query kind> -> train -> sweep -> ...)
/// recording wall time and, when a span is opened with a CostMeter,
/// simulated-cost deltas. Each query gets its own QueryTrace, so batch
/// execution — where different queries run on different pool workers —
/// cannot bleed spans across queries; within one trace, open/close is
/// mutex-guarded, so even a misused trace degrades to odd nesting rather
/// than a data race.
///
/// Exports: an indented text tree (ToText) and Chrome trace_event JSON
/// (ToChromeJson) loadable in chrome://tracing or https://ui.perfetto.dev.
class QueryTrace {
 public:
  struct Span {
    std::string name;
    /// Index into spans() of the enclosing span, -1 for roots.
    int parent = -1;
    int depth = 0;
    /// Wall-clock offsets from the trace's construction, in nanoseconds.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// CostMeter::TotalSeconds() at open/close when a meter was attached.
    double cost_begin_seconds = 0.0;
    double cost_end_seconds = 0.0;
    bool has_cost = false;
    bool closed = false;
  };

  /// `name` labels the whole trace (conventionally the FrameQL text).
  explicit QueryTrace(std::string name);

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  const std::string& name() const { return name_; }
  std::vector<Span> spans() const BLAZEIT_EXCLUDES(mu_);

  /// Indented tree with per-span wall ms and simulated-cost deltas.
  std::string ToText() const;

  /// Chrome trace_event JSON: complete ("ph":"X") events in microseconds,
  /// one row (tid) per nesting depth. Self-contained object — write it to
  /// a .json file and load it in chrome://tracing.
  std::string ToChromeJson() const;

  /// Span names + nesting only, one "  "-indented name per line — the
  /// timing-free shape the determinism suite compares across pool sizes.
  std::string StructureSignature() const;

 private:
  friend class TraceSpan;

  /// Returns the new span's index.
  int Open(const char* name, const CostMeter* meter) BLAZEIT_EXCLUDES(mu_);
  void Close(int index, const CostMeter* meter) BLAZEIT_EXCLUDES(mu_);

  int64_t NowNs() const;

  mutable util::Mutex mu_;
  std::string name_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_ BLAZEIT_GUARDED_BY(mu_);
  /// Indices of currently open spans, innermost last.
  std::vector<int> stack_ BLAZEIT_GUARDED_BY(mu_);
};

/// RAII span. A null trace makes every operation a no-op, so call sites
/// don't branch on whether tracing is enabled:
///
///   obs::TraceSpan span(trace, "train", &meter);   // trace may be null
///
/// When a meter is given, the span records its TotalSeconds() at open and
/// close; the difference is the simulated cost attributed to the span
/// (including its children).
class TraceSpan {
 public:
  TraceSpan(QueryTrace* trace, const char* name,
            const CostMeter* meter = nullptr)
      : trace_(trace), meter_(meter) {
    if (trace_ != nullptr) index_ = trace_->Open(name, meter_);
  }

  ~TraceSpan() { Close(); }

  /// Ends the span before the destructor would, for stages that finish
  /// mid-function; subsequent Close()/destruction is a no-op.
  void Close() {
    if (trace_ != nullptr) trace_->Close(index_, meter_);
    trace_ = nullptr;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  QueryTrace* trace_;
  const CostMeter* meter_;
  int index_ = -1;
};

}  // namespace obs
}  // namespace blazeit

#endif  // BLAZEIT_OBS_TRACE_H_
