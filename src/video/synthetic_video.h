#ifndef BLAZEIT_VIDEO_SYNTHETIC_VIDEO_H_
#define BLAZEIT_VIDEO_SYNTHETIC_VIDEO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.h"
#include "util/status.h"
#include "video/image.h"
#include "video/scene_model.h"

namespace blazeit {

/// Ground-truth state of one object in one frame: what a perfect object
/// detector would return. The simulated detector perturbs this; the
/// renderer rasterizes it.
struct GroundTruthObject {
  int64_t track_id = 0;
  int class_id = kCar;
  /// Visible (clamped) bounding box in normalized coordinates.
  Rect rect;
  /// Effective rendered color of this instance.
  Color color;
  /// Index of the appearance sub-population (e.g. 0 = red tour buses).
  int population = 0;
};

/// A synthetic video stream: a deterministic, lazily-evaluated realization
/// of a StreamConfig scene model. Stands in for the paper's YouTube
/// streams. One instance corresponds to one *day* of video; the three days
/// the paper uses (training / threshold / test) are three instances with
/// different seeds.
///
/// Frame access is O(objects in frame) and independent of access order, so
/// executors can sample frames in any pattern without materializing the
/// video.
class SyntheticVideo {
 public:
  /// Validates the config and generates the object instances for
  /// `num_frames` frames with the given seed.
  static Result<std::unique_ptr<SyntheticVideo>> Create(
      const StreamConfig& config, uint64_t seed, int64_t num_frames);

  const StreamConfig& config() const { return config_; }
  int64_t num_frames() const { return num_frames_; }
  int fps() const { return config_.fps; }
  uint64_t seed() const { return seed_; }

  /// Content fingerprint of this generated day:
  /// (ConfigFingerprint, seed, num_frames). Two SyntheticVideo instances
  /// with equal fingerprints produce identical ground truth for every
  /// frame, so caches (detector memoization, the on-disk detection store)
  /// key on it rather than on the seed, which is shared across streams.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Timestamp of a frame in seconds (one-to-one with frames, Section 4).
  double TimestampSeconds(int64_t frame) const {
    return static_cast<double>(frame) / config_.fps;
  }

  /// All objects visible in the frame (what a perfect detector returns).
  std::vector<GroundTruthObject> GroundTruth(int64_t frame) const;

  /// Number of visible instances of `class_id` in the frame.
  int CountVisible(int64_t frame, int class_id) const;

  /// Rasterizes the frame at the given raster size (normalized-coordinate
  /// scene; the nominal stream resolution only affects pixel-area UDFs).
  Image RenderFrame(int64_t frame, int width, int height) const;

  /// Rasterizes only the given region of interest (spatial filtering);
  /// coordinates inside the result are re-normalized to the ROI.
  Image RenderFrameRegion(int64_t frame, const Rect& roi, int width,
                          int height) const;

  /// As RenderFrameRegion, but renders into `out` (reusing its buffer when
  /// the size allows). Batch loops use this to avoid one allocation per
  /// frame; output bits are identical to RenderFrameRegion.
  void RenderFrameRegionInto(int64_t frame, const Rect& roi, int width,
                             int height, Image* out) const;
  /// As above with the frame's NoiseSeed already computed, so a run of
  /// frames can compute its seeds together through NoiseSeeds.
  void RenderFrameRegionInto(int64_t frame, const Rect& roi, int width,
                             int height, uint64_t noise_seed,
                             Image* out) const;

  /// Seed of the frame's pixel-noise stream: the first draw of an
  /// MT19937-64 engine seeded from (day seed, frame).
  uint64_t NoiseSeed(int64_t frame) const;
  /// out[i] = NoiseSeed(frames[i]) for i in [0, n), eight engine seedings
  /// at a time (Mt19937_64FirstDraws).
  void NoiseSeeds(const int64_t* frames, size_t n, uint64_t* out) const;

  // --- Measured statistics (for Table 3 and generator tests) ---

  /// Fraction of frames with at least one visible instance of the class.
  double MeasureOccupancy(int class_id) const;
  /// Number of distinct track ids of the class that are ever visible.
  int64_t DistinctTracks(int class_id) const;
  /// Mean instance lifetime in seconds.
  double MeanDurationSeconds(int class_id) const;
  /// Mean number of visible instances per frame.
  double MeanVisibleCount(int class_id) const;

 private:
  /// One generated object instance (visible over [start_frame, end_frame)).
  struct Instance {
    int64_t track_id;
    int class_index;  // index into config_.classes
    int population;
    int64_t start_frame;
    int64_t end_frame;
    double cx0, cy0;  // center at start_frame
    double vx, vy;    // normalized units per frame
    double half_w, half_h;
    Color color;
  };

  /// A static visual distractor (parked vehicle, shadow): rendered in
  /// every frame but invisible to the object detector's ground truth.
  struct ClutterBlob {
    Rect rect;
    Color color;
  };

  SyntheticVideo(StreamConfig config, uint64_t seed, int64_t num_frames);

  void GenerateInstances();
  void GenerateClutter();
  void BuildActiveIndex();

  /// Visible rect of an instance at a frame; empty if off-screen.
  Rect VisibleRect(const Instance& inst, int64_t frame) const;

  /// Global lighting multiplier at a frame (slow sinusoidal wobble).
  float Lighting(int64_t frame) const;

  /// Seed of the engine whose first draw is the frame's NoiseSeed.
  uint64_t NoiseEngineSeed(int64_t frame) const;

  StreamConfig config_;
  uint64_t seed_;
  int64_t num_frames_;
  uint64_t fingerprint_ = 0;
  /// Lighting's per-stream sinusoid phase and per-day brightness factor,
  /// drawn once in Create.
  double lighting_phase_ = 0.0;
  double day_factor_ = 1.0;
  std::vector<Instance> instances_;
  std::vector<ClutterBlob> clutter_;
  /// active_[frame] lists indices into instances_ whose interval covers the
  /// frame (visibility is still checked geometrically).
  std::vector<std::vector<int32_t>> active_;
};

}  // namespace blazeit

#endif  // BLAZEIT_VIDEO_SYNTHETIC_VIDEO_H_
