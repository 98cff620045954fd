#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/string_util.h"

namespace blazeit {
namespace obs {

namespace {

bool SlowerThan(const FlightRecord& a, const FlightRecord& b) {
  // Heap comparator: the *fastest* retained record sits at the heap top,
  // ready to be displaced. Sequence breaks wall-time ties so retention
  // is deterministic for equal timings.
  if (a.wall_ms != b.wall_ms) return a.wall_ms > b.wall_ms;
  return a.sequence > b.sequence;
}

}  // namespace

std::string FlightRecord::ToJson() const {
  std::string out = "{";
  out += "\"correlation_id\":" + std::to_string(correlation_id);
  out += ",\"sequence\":" + std::to_string(sequence);
  out += ",\"client\":\"" + JsonEscape(client) + "\"";
  out += ",\"query\":\"" + JsonEscape(query) + "\"";
  out += ",\"plan\":\"" + JsonEscape(plan) + "\"";
  out += ",\"accuracy_tier\":\"" + JsonEscape(accuracy_tier) + "\"";
  out += std::string(",\"ok\":") + (ok ? "true" : "false");
  out += std::string(",\"degraded\":") + (degraded ? "true" : "false");
  if (!ok) out += ",\"error\":\"" + JsonEscape(error) + "\"";
  out += StrFormat(",\"wall_ms\":%.3f", wall_ms);
  out += StrFormat(",\"cost_seconds\":%.6f", cost_seconds);
  if (trace != nullptr) {
    out += ",\"trace_structure\":\"" +
           JsonEscape(trace->StructureSignature()) + "\"";
  }
  out += "}";
  return out;
}

FlightRecorder::FlightRecorder(Options options) : options_(options) {
  if (options_.capacity < 1) options_.capacity = 1;
  if (options_.slowest_k < 0) options_.slowest_k = 0;
  ring_.resize(static_cast<size_t>(options_.capacity));
  slowest_.reserve(static_cast<size_t>(options_.slowest_k));
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

int64_t FlightRecorder::NextCorrelationId() {
  static std::atomic<int64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::Record(FlightRecord record) {
  util::MutexLock lock(mu_);
  record.sequence = recorded_++;

  if (options_.slowest_k > 0) {
    if (static_cast<int64_t>(slowest_.size()) < options_.slowest_k) {
      slowest_.push_back(record);
      std::push_heap(slowest_.begin(), slowest_.end(), SlowerThan);
    } else if (record.wall_ms > slowest_[0].wall_ms) {
      std::pop_heap(slowest_.begin(), slowest_.end(), SlowerThan);
      slowest_.back() = record;
      std::push_heap(slowest_.begin(), slowest_.end(), SlowerThan);
    }
  }

  ring_[static_cast<size_t>(record.sequence % options_.capacity)] =
      std::move(record);
}

int64_t FlightRecorder::total_recorded() const {
  util::MutexLock lock(mu_);
  return recorded_;
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(static_cast<size_t>(options_.capacity));
  {
    util::MutexLock lock(mu_);
    for (const FlightRecord& record : ring_) {
      if (record.sequence >= 0) out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.sequence > b.sequence;
            });
  return out;
}

std::vector<FlightRecord> FlightRecorder::SlowestSnapshot() const {
  std::vector<FlightRecord> out;
  {
    util::MutexLock lock(mu_);
    out = slowest_;
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              if (a.wall_ms != b.wall_ms) return a.wall_ms > b.wall_ms;
              return a.sequence < b.sequence;
            });
  return out;
}

std::string FlightRecorder::ToJson() const {
  std::string out = "{";
  out += "\"total_recorded\":" + std::to_string(total_recorded());
  out += ",\"capacity\":" + std::to_string(options_.capacity);
  out += ",\"slowest_k\":" + std::to_string(options_.slowest_k);
  out += ",\"recent\":[";
  bool first = true;
  for (const FlightRecord& record : Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += record.ToJson();
  }
  out += "],\"slowest\":[";
  first = true;
  for (const FlightRecord& record : SlowestSnapshot()) {
    if (!first) out += ",";
    first = false;
    out += record.ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace blazeit
