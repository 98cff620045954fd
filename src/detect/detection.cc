#include "detect/detection.h"

#include "util/string_util.h"

namespace blazeit {

std::string Detection::ToString() const {
  return StrFormat("%s score=%.2f %s", ClassName(class_id), score,
                   rect.ToString().c_str());
}

std::vector<Detection> FilterClass(const std::vector<Detection>& detections,
                                   int class_id, double score_threshold) {
  std::vector<Detection> out;
  for (const Detection& det : detections) {
    if (det.class_id == class_id && det.score >= score_threshold) {
      out.push_back(det);
    }
  }
  return out;
}

}  // namespace blazeit
