#ifndef BLAZEIT_DETECT_DETECTION_H_
#define BLAZEIT_DETECT_DETECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "video/geometry.h"
#include "video/scene_model.h"

namespace blazeit {

/// One detected object in one frame: the unit the FrameQL schema is built
/// from (class, mask, features; trackid is added by entity resolution).
struct Detection {
  int class_id = kCar;
  Rect rect;
  /// Detector confidence in [0, 1]; thresholded per stream (Table 3).
  double score = 0.0;
  /// Optional feature vector from the detection head (FrameQL `features`
  /// field); mean box color in this implementation.
  std::vector<float> features;

  std::string ToString() const;
};

/// Detections of `class_id` at or above the threshold, in input order.
std::vector<Detection> FilterClass(const std::vector<Detection>& detections,
                                   int class_id, double score_threshold);

}  // namespace blazeit

#endif  // BLAZEIT_DETECT_DETECTION_H_
