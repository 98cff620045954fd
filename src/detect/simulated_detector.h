#ifndef BLAZEIT_DETECT_SIMULATED_DETECTOR_H_
#define BLAZEIT_DETECT_SIMULATED_DETECTOR_H_

#include <string>
#include <vector>

#include "detect/detector.h"

namespace blazeit {

/// Noise model for the simulated detector. Defaults reflect the behaviour
/// the paper reports for modern detectors: reliable on large objects,
/// degraded on small ones (Section 10.1 "Data preprocessing"), with
/// well-calibrated scores once the per-stream threshold is applied.
struct DetectorNoiseConfig {
  /// Miss probability for a vanishingly small object; decays with area.
  double miss_rate_small = 0.35;
  /// Normalized box area at which the miss rate has decayed by 1/e.
  double reliable_area = 0.004;
  /// Standard deviation of box-coordinate jitter (normalized units). Kept
  /// small so consecutive-frame IOU stays above the tracker's 0.7 cutoff
  /// for steadily moving objects, as with real modern detectors.
  double box_jitter = 0.003;
  /// Expected number of spurious detections per frame.
  double false_positive_rate = 0.02;
  /// Score of spurious detections is drawn below this value, so the
  /// per-stream thresholds of Table 3 remove most of them.
  double false_positive_max_score = 0.45;
  /// Standard deviation of the confidence-score noise.
  double score_noise = 0.08;
  /// Salt mixed into the per-frame RNG so different detector instances
  /// (e.g. "mask-rcnn" vs "fgfa") disagree in detail.
  uint64_t salt = 0x5eed;
};

/// Simulated full object detector: reads the scene ground truth and
/// perturbs it per DetectorNoiseConfig. Deterministic per (video seed,
/// frame). Stands in for Mask R-CNN / FGFA: query processing only reads
/// the boxes, classes and scores a detector returns, and the cost model
/// charges each call at the paper's detector rate, so a seeded noisy
/// detector exercises the same plans and costs without a GPU.
class SimulatedDetector : public ObjectDetector {
 public:
  explicit SimulatedDetector(DetectorNoiseConfig config = {},
                             std::string name = "simulated-mask-rcnn")
      : config_(config), name_(std::move(name)) {}

  std::vector<Detection> Detect(const SyntheticVideo& video,
                                int64_t frame) const override;

  std::string name() const override { return name_; }

  uint64_t ParamsFingerprint() const override;

  const DetectorNoiseConfig& noise_config() const { return config_; }

  /// Fill the `features` field of detections (mean box color from the
  /// rendered frame). Off by default: rendering costs real CPU.
  void set_fill_features(bool fill) { fill_features_ = fill; }

 private:
  DetectorNoiseConfig config_;
  std::string name_;
  bool fill_features_ = false;
};

}  // namespace blazeit

#endif  // BLAZEIT_DETECT_SIMULATED_DETECTOR_H_
