#include "video/synthetic_video.h"

#include <cmath>
#include <numbers>

#include "util/logging.h"

namespace blazeit {

namespace {

// Minimum fraction of an object's area that must remain on-screen for the
// object to count as visible.
constexpr double kMinVisibleFraction = 0.25;

// Reflects x into [lo, hi] with a triangle wave: linear motion bounces off
// the region walls. Keeps moving objects inside their class region for
// their whole dwell time, so the measured occupancy matches the analytic
// Poisson calibration.
double Fold(double x, double lo, double hi) {
  if (hi <= lo) return (lo + hi) / 2;
  double span = hi - lo;
  double y = std::fmod(x - lo, 2 * span);
  if (y < 0) y += 2 * span;
  return y <= span ? lo + y : hi - (y - span);
}

}  // namespace

Result<std::unique_ptr<SyntheticVideo>> SyntheticVideo::Create(
    const StreamConfig& config, uint64_t seed, int64_t num_frames) {
  BLAZEIT_RETURN_NOT_OK(ValidateStreamConfig(config));
  if (num_frames <= 0)
    return Status::InvalidArgument("num_frames must be positive");
  std::unique_ptr<SyntheticVideo> video(
      new SyntheticVideo(config, seed, num_frames));
  // Lighting phase is per-stream (shared across days); see the rate-
  // modulation comment in GenerateInstances.
  video->lighting_phase_ =
      static_cast<double>(HashCombine(HashString(config.name), 0xbeef) %
                          1000) /
      1000.0 * 2 * std::numbers::pi;
  // Day-level drift: one brightness factor per day (seed), modelling
  // weather/exposure differences between days.
  if (config.day_brightness_jitter > 0) {
    Rng day_rng(HashCombine(seed, 0xda1));
    video->day_factor_ =
        1.0 + day_rng.Normal(0.0, config.day_brightness_jitter);
  }
  video->GenerateInstances();
  video->GenerateClutter();
  video->BuildActiveIndex();
  return video;
}

SyntheticVideo::SyntheticVideo(StreamConfig config, uint64_t seed,
                               int64_t num_frames)
    : config_(std::move(config)),
      seed_(seed),
      num_frames_(num_frames),
      fingerprint_(Fingerprint()
                       .Mix(ConfigFingerprint(config_))
                       .Mix(seed_)
                       .Mix(num_frames_)
                       .value()) {}

void SyntheticVideo::GenerateInstances() {
  int64_t next_track_id = 1;
  for (size_t ci = 0; ci < config_.classes.size(); ++ci) {
    const ObjectClassConfig& cls = config_.classes[ci];
    Rng rng(HashCombine(seed_, 0x1000 + ci));
    double duration_frames = cls.mean_duration_sec * config_.fps;
    double base_rate = ArrivalRatePerFrame(cls.occupancy, duration_frames);
    if (cls.day_rate_jitter > 0) {
      // One multiplicative traffic-volume factor per (day, class).
      Rng day_rng(HashCombine(seed_, 0xda7e + ci));
      base_rate *= day_rng.LogNormal(
          -cls.day_rate_jitter * cls.day_rate_jitter / 2.0,
          cls.day_rate_jitter);
    }
    // The diurnal phase belongs to the *stream*, not the day: the paper
    // assumes the held-out day is representative of the unseen data (no
    // model drift, Section 3.1), so days share their rate structure while
    // arrival realizations stay independent.
    double phase =
        static_cast<double>(HashCombine(HashString(config_.name), ci) %
                            10000) /
        10000.0 * 2 * std::numbers::pi;
    double period_frames =
        std::max(1.0, cls.rate_modulation_period_sec * config_.fps);
    // Normalize population weights into a CDF.
    std::vector<double> pop_cdf;
    double total_weight = 0;
    for (const ObjectPopulation& pop : cls.populations)
      total_weight += pop.weight;
    double acc = 0;
    for (const ObjectPopulation& pop : cls.populations) {
      acc += pop.weight / total_weight;
      pop_cdf.push_back(acc);
    }
    // Log-normal dwell time with the configured mean.
    double dur_mu = std::log(duration_frames) -
                    cls.duration_log_sigma * cls.duration_log_sigma / 2.0;

    for (int64_t t = 0; t < num_frames_; ++t) {
      double modulation =
          1.0 + cls.rate_modulation_amplitude *
                    std::sin(2 * std::numbers::pi * t / period_frames + phase);
      int arrivals = rng.Poisson(base_rate * std::max(0.0, modulation));
      for (int a = 0; a < arrivals; ++a) {
        Instance inst;
        inst.track_id = next_track_id++;
        inst.class_index = static_cast<int>(ci);
        inst.start_frame = t;
        double dur = rng.LogNormal(dur_mu, cls.duration_log_sigma);
        inst.end_frame =
            std::min(num_frames_,
                     t + std::max<int64_t>(1, std::llround(dur)));
        // Population pick.
        double u = rng.Uniform();
        inst.population = 0;
        for (size_t p = 0; p < pop_cdf.size(); ++p) {
          if (u <= pop_cdf[p]) {
            inst.population = static_cast<int>(p);
            break;
          }
        }
        const ObjectPopulation& pop = cls.populations[inst.population];
        auto jitter_channel = [&](float base) {
          return std::clamp(
              base + static_cast<float>(rng.Normal(0, pop.color_jitter)),
              0.0f, 1.0f);
        };
        inst.color = Color{jitter_channel(pop.color.r),
                           jitter_channel(pop.color.g),
                           jitter_channel(pop.color.b)};
        // Size: a single log-normal factor keeps the aspect ratio.
        double size_factor = rng.LogNormal(
            -cls.size_log_sigma * cls.size_log_sigma / 2.0,
            cls.size_log_sigma);
        inst.half_w = cls.mean_width * size_factor / 2.0;
        inst.half_h = cls.mean_height * size_factor / 2.0;
        // Spawn center uniformly inside the class region.
        inst.cx0 = rng.Uniform(cls.region.xmin, cls.region.xmax);
        inst.cy0 = rng.Uniform(cls.region.ymin, cls.region.ymax);
        // Motion: random direction, log-normal speed jitter.
        double angle = rng.Uniform(0, 2 * std::numbers::pi);
        double speed =
            cls.speed_mean / config_.fps * rng.LogNormal(-0.125, 0.5);
        inst.vx = speed * std::cos(angle);
        inst.vy = speed * std::sin(angle);
        instances_.push_back(inst);
      }
    }
  }
  BLAZEIT_LOG(kDebug) << "stream " << config_.name << " seed " << seed_
                      << ": generated " << instances_.size() << " instances";
}

void SyntheticVideo::GenerateClutter() {
  if (config_.clutter_rate <= 0) return;
  // Clutter is drawn from the *day* seed: each day has its own parked
  // vehicles and shadows, constant within the day.
  Rng rng(HashCombine(seed_, 0xc1a7));
  int count = rng.Poisson(config_.clutter_rate);
  for (int i = 0; i < count; ++i) {
    ClutterBlob blob;
    double cx = rng.Uniform(0.02, 0.98);
    double cy = rng.Uniform(0.25, 0.98);
    double hw = rng.Uniform(0.008, 0.035);
    double hh = rng.Uniform(0.006, 0.025);
    blob.rect = Rect{cx - hw, cy - hh, cx + hw, cy + hh}.ClampToUnit();
    // Muted vehicle-and-shadow palette.
    float base = static_cast<float>(rng.Uniform(0.15, 0.75));
    blob.color = Color{
        std::clamp(base + static_cast<float>(rng.Normal(0, 0.08)), 0.0f, 1.0f),
        std::clamp(base + static_cast<float>(rng.Normal(0, 0.08)), 0.0f, 1.0f),
        std::clamp(base + static_cast<float>(rng.Normal(0, 0.08)), 0.0f, 1.0f)};
    clutter_.push_back(blob);
  }
}

void SyntheticVideo::BuildActiveIndex() {
  active_.assign(static_cast<size_t>(num_frames_), {});
  for (size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    for (int64_t t = inst.start_frame; t < inst.end_frame; ++t) {
      active_[static_cast<size_t>(t)].push_back(static_cast<int32_t>(i));
    }
  }
}

Rect SyntheticVideo::VisibleRect(const Instance& inst, int64_t frame) const {
  const Rect& region =
      config_.classes[static_cast<size_t>(inst.class_index)].region;
  double dt = static_cast<double>(frame - inst.start_frame);
  double cx = Fold(inst.cx0 + inst.vx * dt, region.xmin, region.xmax);
  double cy = Fold(inst.cy0 + inst.vy * dt, region.ymin, region.ymax);
  Rect full{cx - inst.half_w, cy - inst.half_h, cx + inst.half_w,
            cy + inst.half_h};
  Rect visible = full.ClampToUnit();
  if (full.Area() <= 0 ||
      visible.Area() < kMinVisibleFraction * full.Area()) {
    return Rect{0, 0, 0, 0};
  }
  return visible;
}

std::vector<GroundTruthObject> SyntheticVideo::GroundTruth(
    int64_t frame) const {
  std::vector<GroundTruthObject> out;
  if (frame < 0 || frame >= num_frames_) return out;
  for (int32_t idx : active_[static_cast<size_t>(frame)]) {
    const Instance& inst = instances_[static_cast<size_t>(idx)];
    Rect rect = VisibleRect(inst, frame);
    if (rect.Empty()) continue;
    GroundTruthObject obj;
    obj.track_id = inst.track_id;
    obj.class_id = config_.classes[static_cast<size_t>(inst.class_index)]
                       .class_id;
    obj.rect = rect;
    obj.color = inst.color;
    obj.population = inst.population;
    out.push_back(obj);
  }
  return out;
}

int SyntheticVideo::CountVisible(int64_t frame, int class_id) const {
  if (frame < 0 || frame >= num_frames_) return 0;
  int count = 0;
  for (int32_t idx : active_[static_cast<size_t>(frame)]) {
    const Instance& inst = instances_[static_cast<size_t>(idx)];
    if (config_.classes[static_cast<size_t>(inst.class_index)].class_id !=
        class_id) {
      continue;
    }
    if (!VisibleRect(inst, frame).Empty()) ++count;
  }
  return count;
}

float SyntheticVideo::Lighting(int64_t frame) const {
  double period_frames =
      std::max(1.0, config_.lighting_period_sec * config_.fps);
  // Clamp to non-negative: with a large day_brightness_jitter the Gaussian
  // day factor can dip below the sinusoid's amplitude, and a negative
  // global light would rasterize negative channel values (violating the
  // image's [0,1] contract — with pixel_noise == 0 nothing downstream
  // would ever clamp them). Fill/FillRect additionally clamp the scaled
  // colors at the fill sites, covering the factor-above-displayable case.
  return std::max(
      0.0f,
      static_cast<float>(
          day_factor_ +
          config_.lighting_variation *
              std::sin(2 * std::numbers::pi * frame / period_frames +
                       lighting_phase_)));
}

Image SyntheticVideo::RenderFrame(int64_t frame, int width,
                                  int height) const {
  return RenderFrameRegion(frame, Rect{0, 0, 1, 1}, width, height);
}

Image SyntheticVideo::RenderFrameRegion(int64_t frame, const Rect& roi,
                                        int width, int height) const {
  Image img;
  RenderFrameRegionInto(frame, roi, width, height, &img);
  return img;
}

uint64_t SyntheticVideo::NoiseEngineSeed(int64_t frame) const {
  return HashCombine(seed_, HashCombine(0xf00d, static_cast<uint64_t>(frame)));
}

uint64_t SyntheticVideo::NoiseSeed(int64_t frame) const {
  // Historically each frame constructed an Rng and burned one engine draw
  // to seed its noise stream; Mt19937_64FirstDraw computes that same draw
  // without materializing the engine.
  return Mt19937_64FirstDraw(NoiseEngineSeed(frame));
}

void SyntheticVideo::NoiseSeeds(const int64_t* frames, size_t n,
                                uint64_t* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = NoiseEngineSeed(frames[i]);
  Mt19937_64FirstDraws(out, n, out);
}

void SyntheticVideo::RenderFrameRegionInto(int64_t frame, const Rect& roi,
                                           int width, int height,
                                           Image* out) const {
  RenderFrameRegionInto(frame, roi, width, height, NoiseSeed(frame), out);
}

void SyntheticVideo::RenderFrameRegionInto(int64_t frame, const Rect& roi,
                                           int width, int height,
                                           uint64_t noise_seed,
                                           Image* out) const {
  out->SetSize(width, height);
  Image& img = *out;
  Rect region = roi.ClampToUnit();
  if (region.Empty()) {
    img.Fill(Color{0, 0, 0});
    return;
  }
  float light = Lighting(frame);
  img.Fill(config_.background.Scaled(light));
  // Map a scene-coordinate rect into ROI-relative coordinates.
  auto to_roi = [&](const Rect& r) {
    Rect out;
    out.xmin = (r.xmin - region.xmin) / region.width();
    out.xmax = (r.xmax - region.xmin) / region.width();
    out.ymin = (r.ymin - region.ymin) / region.height();
    out.ymax = (r.ymax - region.ymin) / region.height();
    return out;
  };
  for (const ClutterBlob& blob : clutter_) {
    Rect r = to_roi(blob.rect).ClampToUnit();
    if (r.Empty()) continue;
    img.FillRect(r, blob.color.Scaled(light));
  }
  for (const GroundTruthObject& obj : GroundTruth(frame)) {
    Rect r = to_roi(obj.rect).ClampToUnit();
    if (r.Empty()) continue;
    img.FillRect(r, obj.color.Scaled(light));
  }
  img.AddNoiseFromState(noise_seed, config_.pixel_noise);
}

double SyntheticVideo::MeasureOccupancy(int class_id) const {
  int64_t occupied = 0;
  for (int64_t t = 0; t < num_frames_; ++t) {
    if (CountVisible(t, class_id) > 0) ++occupied;
  }
  return static_cast<double>(occupied) / static_cast<double>(num_frames_);
}

int64_t SyntheticVideo::DistinctTracks(int class_id) const {
  int64_t count = 0;
  for (const Instance& inst : instances_) {
    if (config_.classes[static_cast<size_t>(inst.class_index)].class_id ==
        class_id) {
      ++count;
    }
  }
  return count;
}

double SyntheticVideo::MeanDurationSeconds(int class_id) const {
  double total = 0;
  int64_t count = 0;
  for (const Instance& inst : instances_) {
    if (config_.classes[static_cast<size_t>(inst.class_index)].class_id !=
        class_id) {
      continue;
    }
    total += static_cast<double>(inst.end_frame - inst.start_frame);
    ++count;
  }
  if (count == 0) return 0;
  return total / static_cast<double>(count) / config_.fps;
}

double SyntheticVideo::MeanVisibleCount(int class_id) const {
  double total = 0;
  for (int64_t t = 0; t < num_frames_; ++t) total += CountVisible(t, class_id);
  return total / static_cast<double>(num_frames_);
}

}  // namespace blazeit
