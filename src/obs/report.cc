#include "obs/report.h"

#include <cstdio>

#include "util/string_util.h"

namespace blazeit {
namespace obs {

namespace {

/// %.17g round-trips doubles exactly, so a report's JSON totals reconcile
/// with the in-memory CostMeter to the bit after a parse.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendCostLine(const char* label, int64_t calls, double seconds,
                    std::string* out) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %-16s %10lld calls  %12.6f sim-s\n",
                label, static_cast<long long>(calls), seconds);
  *out += buf;
}

}  // namespace

void ExecutionReport::FillCost(const CostMeter& meter) {
  detection_calls = meter.detection_calls();
  specialized_nn_calls = meter.specialized_nn_calls();
  filter_calls = meter.filter_calls();
  training_frames = meter.training_frames();
  detection_seconds = meter.detection_seconds();
  specialized_nn_seconds = meter.specialized_nn_seconds();
  filter_seconds = meter.filter_seconds();
  training_seconds = meter.training_seconds();
  thresholding_seconds = meter.thresholding_seconds();
  total_seconds = meter.TotalSeconds();
  query_seconds = meter.QuerySeconds();
}

std::string ExecutionReport::ToText() const {
  std::string out;
  out += "query: " + query + "\n";
  out += "plan: " + plan;
  if (batch_group >= 0) {
    out += " (batch group " + std::to_string(batch_group) + ")";
  }
  out.push_back('\n');
  if (!plan_description.empty()) {
    out += "  " + plan_description + "\n";
  }
  if (accuracy_tier != "full") {
    out += "accuracy tier: " + accuracy_tier + "\n";
  }
  out += "simulated cost:\n";
  AppendCostLine("detection", detection_calls, detection_seconds, &out);
  AppendCostLine("specialized-nn", specialized_nn_calls,
                 specialized_nn_seconds, &out);
  AppendCostLine("filter", filter_calls, filter_seconds, &out);
  AppendCostLine("training", training_frames, training_seconds, &out);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %-16s %10s        %12.6f sim-s\n",
                "thresholding", "", thresholding_seconds);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  total %.6f sim-s (%.6f excluding train/threshold)\n",
                total_seconds, query_seconds);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "cache: %lld hits / %lld misses (floats %lld/%lld, doubles "
      "%lld/%lld, blobs %lld/%lld)\n",
      static_cast<long long>(cache.hits()),
      static_cast<long long>(cache.misses()),
      static_cast<long long>(cache.frame_float_hits),
      static_cast<long long>(cache.frame_float_misses),
      static_cast<long long>(cache.frame_double_hits),
      static_cast<long long>(cache.frame_double_misses),
      static_cast<long long>(cache.blob_hits),
      static_cast<long long>(cache.blob_misses));
  out += buf;
  if (cache.shared_nn_frames > 0 || cache.shared_filter_frames > 0 ||
      cache.shared_models > 0) {
    std::snprintf(buf, sizeof(buf),
                  "shared sweeps: %lld NN frames, %lld filter frames, %lld "
                  "models\n",
                  static_cast<long long>(cache.shared_nn_frames),
                  static_cast<long long>(cache.shared_filter_frames),
                  static_cast<long long>(cache.shared_models));
    out += buf;
  }
  if (sketch.consulted) {
    if (sketch.pruned) {
      std::snprintf(buf, sizeof(buf),
                    "sketch: pruned %lld of %lld window frames (%lld "
                    "candidates)\n",
                    static_cast<long long>(sketch.window_frames -
                                           sketch.candidate_frames),
                    static_cast<long long>(sketch.window_frames),
                    static_cast<long long>(sketch.candidate_frames));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "sketch: consulted, no current index (full window of "
                    "%lld frames walked)\n",
                    static_cast<long long>(sketch.window_frames));
    }
    out += buf;
  }
  if (trace != nullptr) out += trace->ToText();
  return out;
}

std::string ExecutionReport::ToJson() const {
  std::string out = "{";
  out += "\"query\":\"" + JsonEscape(query) + "\"";
  out += ",\"plan\":\"" + JsonEscape(plan) + "\"";
  out += ",\"plan_description\":\"" + JsonEscape(plan_description) + "\"";
  out += ",\"batch_group\":" + std::to_string(batch_group);
  out += ",\"accuracy_tier\":\"" + JsonEscape(accuracy_tier) + "\"";
  out += ",\"cost\":{";
  out += "\"detection_calls\":" + std::to_string(detection_calls);
  out += ",\"specialized_nn_calls\":" + std::to_string(specialized_nn_calls);
  out += ",\"filter_calls\":" + std::to_string(filter_calls);
  out += ",\"training_frames\":" + std::to_string(training_frames);
  out += ",\"detection_seconds\":" + FormatDouble(detection_seconds);
  out += ",\"specialized_nn_seconds\":" +
         FormatDouble(specialized_nn_seconds);
  out += ",\"filter_seconds\":" + FormatDouble(filter_seconds);
  out += ",\"training_seconds\":" + FormatDouble(training_seconds);
  out += ",\"thresholding_seconds\":" + FormatDouble(thresholding_seconds);
  out += ",\"total_seconds\":" + FormatDouble(total_seconds);
  out += ",\"query_seconds\":" + FormatDouble(query_seconds);
  out += "}";
  out += ",\"cache\":{";
  out += "\"frame_float_hits\":" + std::to_string(cache.frame_float_hits);
  out +=
      ",\"frame_float_misses\":" + std::to_string(cache.frame_float_misses);
  out += ",\"frame_double_hits\":" + std::to_string(cache.frame_double_hits);
  out += ",\"frame_double_misses\":" +
         std::to_string(cache.frame_double_misses);
  out += ",\"blob_hits\":" + std::to_string(cache.blob_hits);
  out += ",\"blob_misses\":" + std::to_string(cache.blob_misses);
  out += ",\"shared_nn_frames\":" + std::to_string(cache.shared_nn_frames);
  out += ",\"shared_filter_frames\":" +
         std::to_string(cache.shared_filter_frames);
  out += ",\"shared_models\":" + std::to_string(cache.shared_models);
  out += "}";
  out += ",\"sketch\":{";
  out += std::string("\"consulted\":") +
         (sketch.consulted ? "true" : "false");
  out += std::string(",\"pruned\":") + (sketch.pruned ? "true" : "false");
  out += ",\"window_frames\":" + std::to_string(sketch.window_frames);
  out += ",\"candidate_frames\":" + std::to_string(sketch.candidate_frames);
  out += "}";
  if (trace != nullptr) {
    out += ",\"trace\":" + trace->ToChromeJson();
  }
  out += "}";
  return out;
}

}  // namespace obs
}  // namespace blazeit
