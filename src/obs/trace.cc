#include "obs/trace.h"

#include <cstdio>

#include "sim/cost_model.h"
#include "util/string_util.h"

namespace blazeit {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

QueryTrace::QueryTrace(std::string name)
    : name_(std::move(name)), t0_(std::chrono::steady_clock::now()) {}

std::vector<QueryTrace::Span> QueryTrace::spans() const {
  util::MutexLock lock(mu_);
  return spans_;
}

int QueryTrace::Open(const char* name, const CostMeter* meter) {
  util::MutexLock lock(mu_);
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.depth = static_cast<int>(stack_.size());
  span.start_ns = NowNs();
  if (meter != nullptr) {
    span.cost_begin_seconds = meter->TotalSeconds();
    span.has_cost = true;
  }
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  stack_.push_back(index);
  return index;
}

void QueryTrace::Close(int index, const CostMeter* meter) {
  util::MutexLock lock(mu_);
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  if (meter != nullptr) span.cost_end_seconds = meter->TotalSeconds();
  span.closed = true;
  // RAII spans close innermost-first, so this pops exactly one entry; the
  // loop tolerates an unclosed child by popping down to the closing span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

int64_t QueryTrace::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

std::string QueryTrace::ToText() const {
  const std::vector<Span> spans = this->spans();
  std::string out = "trace: " + name_ + "\n";
  for (const Span& span : spans) {
    out.append(static_cast<size_t>(span.depth + 1) * 2, ' ');
    out += span.name;
    const double wall_ms =
        static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  %.3f ms", wall_ms);
    out += buf;
    if (span.has_cost) {
      std::snprintf(buf, sizeof(buf), "  [+%.6f sim-s]",
                    span.cost_end_seconds - span.cost_begin_seconds);
      out += buf;
    }
    if (!span.closed) out += "  (unclosed)";
    out.push_back('\n');
  }
  return out;
}

std::string QueryTrace::ToChromeJson() const {
  const std::vector<Span> spans = this->spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata event naming the process row after the query.
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"" + JsonEscape(name_) + "\"}}";
  first = false;
  for (const Span& span : spans) {
    if (!first) out.push_back(',');
    first = false;
    const double ts_us = static_cast<double>(span.start_ns) / 1e3;
    const double dur_us =
        static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    out += "{\"name\":\"" + JsonEscape(span.name) + "\"";
    out += ",\"cat\":\"blazeit\",\"ph\":\"X\",\"pid\":1";
    // One tid per nesting depth renders the tree as stacked rows.
    out += ",\"tid\":" + std::to_string(span.depth);
    out += ",\"ts\":" + FormatDouble(ts_us);
    out += ",\"dur\":" + FormatDouble(dur_us);
    out += ",\"args\":{";
    if (span.has_cost) {
      out += "\"simulated_seconds\":" +
             FormatDouble(span.cost_end_seconds - span.cost_begin_seconds);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string QueryTrace::StructureSignature() const {
  const std::vector<Span> spans = this->spans();
  std::string out;
  for (const Span& span : spans) {
    out.append(static_cast<size_t>(span.depth) * 2, ' ');
    out += span.name;
    out.push_back('\n');
  }
  return out;
}

}  // namespace obs
}  // namespace blazeit
