#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/check.h"
#include "util/string_util.h"

namespace blazeit {
namespace obs {

namespace {

const char* KindName(MetricsSnapshot::Kind kind) {
  switch (kind) {
    case MetricsSnapshot::Kind::kCounter: return "counter";
    case MetricsSnapshot::Kind::kGauge: return "gauge";
    case MetricsSnapshot::Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

const char* StabilityName(Stability stability) {
  return stability == Stability::kStable ? "stable" : "unstable";
}

void AppendIntArray(const std::vector<int64_t>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += std::to_string(values[i]);
  }
  out->push_back(']');
}

}  // namespace

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<int64_t>[bounds_.size() + 1]) {
  BLAZEIT_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << ": histogram bucket bounds must be sorted";
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(int64_t v) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     Stability stability) {
  util::MutexLock lock(mu_);
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = MetricsSnapshot::Kind::kCounter;
    inst.stability = stability;
    inst.counter.reset(new Counter());
    it = instruments_.emplace(name, std::move(inst)).first;
  }
  BLAZEIT_CHECK(it->second.kind == MetricsSnapshot::Kind::kCounter)
      << ": instrument re-registered with a different kind";
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 Stability stability) {
  util::MutexLock lock(mu_);
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = MetricsSnapshot::Kind::kGauge;
    inst.stability = stability;
    inst.gauge.reset(new Gauge());
    it = instruments_.emplace(name, std::move(inst)).first;
  }
  BLAZEIT_CHECK(it->second.kind == MetricsSnapshot::Kind::kGauge)
      << ": instrument re-registered with a different kind";
  return it->second.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> bounds,
                                         Stability stability) {
  util::MutexLock lock(mu_);
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    Instrument inst;
    inst.kind = MetricsSnapshot::Kind::kHistogram;
    inst.stability = stability;
    inst.histogram.reset(new Histogram(std::move(bounds)));
    it = instruments_.emplace(name, std::move(inst)).first;
  }
  BLAZEIT_CHECK(it->second.kind == MetricsSnapshot::Kind::kHistogram)
      << ": instrument re-registered with a different kind";
  return it->second.histogram.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  util::MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.entries.reserve(instruments_.size());
  for (const auto& [name, inst] : instruments_) {
    MetricsSnapshot::Entry entry;
    entry.name = name;
    entry.kind = inst.kind;
    entry.stability = inst.stability;
    switch (inst.kind) {
      case MetricsSnapshot::Kind::kCounter:
        entry.value = inst.counter->value();
        break;
      case MetricsSnapshot::Kind::kGauge:
        entry.value = inst.gauge->value();
        break;
      case MetricsSnapshot::Kind::kHistogram:
        entry.value = inst.histogram->count();
        entry.sum = inst.histogram->sum();
        entry.bounds = inst.histogram->bounds();
        entry.buckets = inst.histogram->bucket_counts();
        break;
    }
    snap.entries.push_back(std::move(entry));
  }
  return snap;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const Entry& entry : entries) {
    out += entry.name;
    out.push_back(' ');
    if (entry.kind == Kind::kHistogram) {
      out += "count=" + std::to_string(entry.value);
      out += " sum=" + std::to_string(entry.sum);
      out += " buckets=";
      std::string buckets;
      AppendIntArray(entry.buckets, &buckets);
      out += buckets;
    } else {
      out += std::to_string(entry.value);
    }
    out.push_back('\n');
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"metrics\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":\"" + JsonEscape(entry.name) + "\"";
    out += ",\"kind\":\"" + std::string(KindName(entry.kind)) + "\"";
    out += ",\"stability\":\"" +
           std::string(StabilityName(entry.stability)) + "\"";
    if (entry.kind == Kind::kHistogram) {
      out += ",\"count\":" + std::to_string(entry.value);
      out += ",\"sum\":" + std::to_string(entry.sum);
      out += ",\"bounds\":";
      AppendIntArray(entry.bounds, &out);
      out += ",\"buckets\":";
      AppendIntArray(entry.buckets, &out);
    } else {
      out += ",\"value\":" + std::to_string(entry.value);
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

MetricsSnapshot MetricsSnapshot::DeltaFrom(const MetricsSnapshot& base) const {
  MetricsSnapshot delta;
  delta.entries.reserve(entries.size());
  for (const Entry& entry : entries) {
    Entry d = entry;
    if (entry.kind != Kind::kGauge) {
      if (const Entry* b = base.Find(entry.name)) {
        d.value -= b->value;
        d.sum -= b->sum;
        if (d.buckets.size() == b->buckets.size()) {
          for (size_t i = 0; i < d.buckets.size(); ++i) {
            d.buckets[i] -= b->buckets[i];
          }
        }
      }
    }
    delta.entries.push_back(std::move(d));
  }
  return delta;
}

MetricsSnapshot MetricsSnapshot::StableOnly() const {
  MetricsSnapshot out;
  for (const Entry& entry : entries) {
    if (entry.stability == Stability::kStable) out.entries.push_back(entry);
  }
  return out;
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(
    const std::string& name) const {
  for (const Entry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace obs
}  // namespace blazeit
