#include "detect/simulated_detector.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace blazeit {

uint64_t SimulatedDetector::ParamsFingerprint() const {
  // Every DetectorNoiseConfig knob changes the output stream, so all of
  // them are part of the cache identity. The trailing constant is part of
  // the stored key format: dropping it would re-key every stored
  // detections namespace.
  return Fingerprint()
      .Mix(name_)
      .Mix(config_.miss_rate_small)
      .Mix(config_.reliable_area)
      .Mix(config_.box_jitter)
      .Mix(config_.false_positive_rate)
      .Mix(config_.false_positive_max_score)
      .Mix(config_.score_noise)
      .Mix(config_.salt)
      .Mix(false)
      .value();
}

std::vector<Detection> SimulatedDetector::Detect(const SyntheticVideo& video,
                                                 int64_t frame) const {
  std::vector<Detection> out;
  // Determinism: the RNG depends only on (video seed, frame, detector salt),
  // never on call order, so Detect is a pure function.
  Rng rng(HashCombine(HashCombine(video.seed(), config_.salt),
                      static_cast<uint64_t>(frame)));

  for (const GroundTruthObject& obj : video.GroundTruth(frame)) {
    double area = obj.rect.Area();
    double miss_prob =
        config_.miss_rate_small * std::exp(-area / config_.reliable_area);
    if (rng.Bernoulli(miss_prob)) continue;

    Detection det;
    det.class_id = obj.class_id;
    det.rect.xmin = obj.rect.xmin + rng.Normal(0, config_.box_jitter);
    det.rect.ymin = obj.rect.ymin + rng.Normal(0, config_.box_jitter);
    det.rect.xmax = obj.rect.xmax + rng.Normal(0, config_.box_jitter);
    det.rect.ymax = obj.rect.ymax + rng.Normal(0, config_.box_jitter);
    det.rect = det.rect.ClampToUnit();
    if (det.rect.Empty()) continue;
    // Confidence: large, clearly visible objects score high.
    double base_score = 0.95 - 0.5 * miss_prob;
    det.score = std::clamp(
        base_score + rng.Normal(0, config_.score_noise), 0.0, 1.0);
    out.push_back(det);
  }

  // Spurious detections (shadows, reflections): low-score boxes of random
  // classes; per-stream thresholds remove most of them.
  int spurious = rng.Poisson(config_.false_positive_rate);
  for (int i = 0; i < spurious; ++i) {
    Detection det;
    det.class_id = static_cast<int>(rng.UniformInt(0, kNumClasses - 1));
    double cx = rng.Uniform(0.05, 0.95);
    double cy = rng.Uniform(0.05, 0.95);
    double hw = rng.Uniform(0.01, 0.08);
    double hh = rng.Uniform(0.01, 0.08);
    det.rect = Rect{cx - hw, cy - hh, cx + hw, cy + hh}.ClampToUnit();
    det.score = rng.Uniform(0.05, config_.false_positive_max_score);
    out.push_back(det);
  }
  return out;
}

}  // namespace blazeit
