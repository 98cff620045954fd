#ifndef BLAZEIT_VIDEO_SCENE_MODEL_H_
#define BLAZEIT_VIDEO_SCENE_MODEL_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "video/geometry.h"
#include "video/image.h"

namespace blazeit {

/// Object classes supported by the simulated object detector. The paper's
/// detector (Mask R-CNN on MS-COCO) has a fixed label set; ours is the
/// subset its evaluation uses, plus `person`/`bird` for the use-case
/// examples (store planning, ornithology).
enum ClassId : int {
  kCar = 0,
  kBus = 1,
  kBoat = 2,
  kPerson = 3,
  kBird = 4,
  kNumClasses = 5,
};

/// Human-readable class name ("car", "bus", ...).
const char* ClassName(int class_id);

/// Reverse lookup; returns kNotFound for unknown names.
Result<int> ClassIdFromName(const std::string& name);

/// A sub-population of an object class with a distinct appearance, e.g.
/// red tour buses vs. white transit buses (Figure 1). `weight` values are
/// normalized across the populations of a class.
struct ObjectPopulation {
  Color color;
  float color_jitter = 0.05f;
  double weight = 1.0;
};

/// Generative parameters for one object class in a stream. Arrival times
/// follow an (optionally modulated) Poisson process; dwell times are
/// log-normal; each instance moves linearly from a random spawn point.
struct ObjectClassConfig {
  int class_id = kCar;
  /// Target fraction of frames with at least one visible instance; the
  /// arrival rate is derived from this and the mean duration
  /// (P(count >= 1) = 1 - exp(-lambda * duration) for Poisson counts).
  double occupancy = 0.5;
  /// Mean time an instance stays in the scene, in seconds (Table 3).
  double mean_duration_sec = 3.0;
  /// Log-sigma of the log-normal dwell-time distribution.
  double duration_log_sigma = 0.5;
  /// Mean normalized object size.
  double mean_width = 0.10;
  double mean_height = 0.08;
  /// Multiplicative size jitter (log-normal sigma).
  double size_log_sigma = 0.25;
  /// Appearance sub-populations (at least one required).
  std::vector<ObjectPopulation> populations;
  /// Region where instances spawn and move.
  Rect region{0.0, 0.25, 1.0, 0.95};
  /// Mean speed, normalized units per second.
  double speed_mean = 0.05;
  /// Relative amplitude of the slow sinusoidal arrival-rate modulation
  /// ("rush hour" burstiness). 0 disables modulation.
  double rate_modulation_amplitude = 0.5;
  /// Period of the rate modulation, seconds.
  double rate_modulation_period_sec = 417.0;
  /// Log-normal sigma of a per-day arrival-rate factor (weather-dependent
  /// traffic volume). Non-zero values shift the count distribution between
  /// days, which defeats query rewriting for weakly-correlated NNs while
  /// leaving control variates sound.
  double day_rate_jitter = 0.0;
};

/// Full generative description of one video stream ("camera"). Six
/// instances of this struct (see datasets.h) play the role of the paper's
/// six YouTube streams.
struct StreamConfig {
  std::string name;
  int fps = 30;
  /// Nominal resolution (used for pixel-area UDFs and the cost model).
  int width = 1280;
  int height = 720;
  /// Background appearance.
  Color background{0.45f, 0.45f, 0.48f};
  /// Per-pixel Gaussian noise sigma at render time. Night/low-quality
  /// streams use larger values, degrading specialized-NN accuracy.
  double pixel_noise = 0.04;
  /// Relative amplitude of the slow global lighting wobble.
  double lighting_variation = 0.08;
  /// Period of the lighting wobble, seconds.
  double lighting_period_sec = 887.0;
  /// Detector confidence threshold for this stream (the per-video,
  /// manually chosen thresholds of Table 3; a single simulated detector
  /// keeps them uniform here).
  double detection_threshold = 0.5;
  /// Per-day global brightness jitter (relative std; drawn once per day
  /// seed). Non-zero values model day-to-day appearance drift — cameras
  /// whose days differ (weather, exposure) defeat specialized-NN query
  /// rewriting exactly as `archie` does in the paper.
  double day_brightness_jitter = 0.0;
  /// Expected number of static visual distractors (parked vehicles,
  /// shadows) per day; positions/appearance re-drawn per day seed. The
  /// object detector ignores clutter, but frame-level NNs see it, so
  /// day-varying clutter induces a day-varying counting bias — the second
  /// ingredient of archie's rewrite failure.
  double clutter_rate = 0.0;
  std::vector<ObjectClassConfig> classes;

  /// Finds the config for a class; nullptr if the stream never shows it.
  const ObjectClassConfig* FindClass(int class_id) const;
};

/// Derives the per-frame Poisson arrival rate that achieves the configured
/// occupancy given the mean dwell time (in frames).
double ArrivalRatePerFrame(double occupancy, double mean_duration_frames);

/// Expected steady-state mean number of visible instances
/// (lambda * duration), handy for tests and for choosing NN class counts.
double ExpectedMeanCount(const ObjectClassConfig& cls, int fps);

/// Validates a stream config (positive fps, populations present, occupancy
/// in (0,1), etc.).
Status ValidateStreamConfig(const StreamConfig& config);

/// Content fingerprint over every generative field of the config. Two
/// configs share a fingerprint iff they describe the same scene, so the
/// fingerprint (combined with seed and length) identifies a generated day —
/// the detection store keys on it instead of the seed alone, which
/// collides across streams.
uint64_t ConfigFingerprint(const StreamConfig& config);

}  // namespace blazeit

#endif  // BLAZEIT_VIDEO_SCENE_MODEL_H_
