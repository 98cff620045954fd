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
  AppendCostLine("detection", cost.detection_calls(),
                 cost.detection_seconds(), &out);
  AppendCostLine("specialized-nn", cost.specialized_nn_calls(),
                 cost.specialized_nn_seconds(), &out);
  AppendCostLine("filter", cost.filter_calls(), cost.filter_seconds(), &out);
  AppendCostLine("training", cost.training_frames(), cost.training_seconds(),
                 &out);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  %-16s %10s        %12.6f sim-s\n",
                "thresholding", "", cost.thresholding_seconds());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  total %.6f sim-s (%.6f excluding train/threshold)\n",
                cost.TotalSeconds(), cost.QuerySeconds());
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
  out += "\"detection_calls\":" + std::to_string(cost.detection_calls());
  out += ",\"specialized_nn_calls\":" +
         std::to_string(cost.specialized_nn_calls());
  out += ",\"filter_calls\":" + std::to_string(cost.filter_calls());
  out += ",\"training_frames\":" + std::to_string(cost.training_frames());
  out += ",\"detection_seconds\":" + FormatDouble(cost.detection_seconds());
  out += ",\"specialized_nn_seconds\":" +
         FormatDouble(cost.specialized_nn_seconds());
  out += ",\"filter_seconds\":" + FormatDouble(cost.filter_seconds());
  out += ",\"training_seconds\":" + FormatDouble(cost.training_seconds());
  out += ",\"thresholding_seconds\":" +
         FormatDouble(cost.thresholding_seconds());
  out += ",\"total_seconds\":" + FormatDouble(cost.TotalSeconds());
  out += ",\"query_seconds\":" + FormatDouble(cost.QuerySeconds());
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
