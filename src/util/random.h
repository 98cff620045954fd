#ifndef BLAZEIT_UTIL_RANDOM_H_
#define BLAZEIT_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace blazeit {

/// MT19937-64 with std::mt19937_64's seeding and output stream, and its
/// result_type, min() and max(), so libstdc++'s distributions and
/// std::shuffle take the same paths over it and return the same values.
/// It refills its 312-word state a block at a time: the twist and the
/// tempering of all 312 outputs in one pass, eight words per AVX-512
/// vector where the CPU has it (util/cpu_features.h) and the scalar loop
/// otherwise. Every lane computes the scalar step, so the tiers' blocks
/// are identical; a draw is then one load from the tempered block.
/// util_test pins the stream against std::mt19937_64 on every tier.
class Mt19937_64 {
 public:
  using result_type = std::mt19937_64::result_type;
  static constexpr size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ == kStateWords) Refill();
    return block_[pos_++];
  }

  /// The unread outputs of the current block, refilling it first when it
  /// is spent; `*count` receives how many there are (at least one).
  /// Nothing is consumed until Skip.
  const result_type* Peek(size_t* count) {
    if (pos_ == kStateWords) Refill();
    *count = kStateWords - pos_;
    return block_ + pos_;
  }
  /// Consumes `count` outputs of the block Peek returned.
  void Skip(size_t count) { pos_ += count; }

 private:
  void Refill();

  alignas(64) result_type state_[kStateWords];
  /// Tempered outputs of state_; the next draw is block_[pos_].
  alignas(64) result_type block_[kStateWords];
  size_t pos_ = kStateWords;
};

/// Seeded pseudo-random generator used everywhere in the library so that
/// scene generation, detector noise, NN initialization, and sampling are all
/// reproducible. Wraps Mt19937_64 (std::mt19937_64's stream) with the
/// distributions we need.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// `count` indices uniform in [0, range), range >= 1: the values of
  /// `count` successive std::uniform_int_distribution<uint64_t>(0,
  /// range - 1) draws (UniformInt(0, range - 1) for range <= 2^63), from
  /// the same engine outputs, rejections included. Maps a block of engine
  /// outputs per step instead of one distribution call per index.
  void UniformIndices(uint64_t range, size_t count, uint64_t* out);
  /// Standard normal draw scaled to N(mean, stddev^2).
  double Normal(double mean, double stddev);
  /// Poisson draw with the given mean.
  int Poisson(double mean);
  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);
  /// Log-normal draw parameterized by the *target* mean and sigma of the
  /// underlying normal; used for object dwell-time distributions.
  double LogNormal(double log_mean, double log_sigma);

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// SplitMix64 hash; used to derive per-frame deterministic seeds.
uint64_t HashCombine(uint64_t a, uint64_t b);

/// The first output of std::mt19937_64 seeded with `seed`, computed
/// without materializing the engine's 312-word state (~40x cheaper than
/// constructing an Rng for one draw — the first output only depends on
/// state words 0, 1, and 156 of the standard-specified seeding
/// recurrence). The renderer burns one engine draw per frame to seed the
/// pixel-noise stream; this keeps that contract bit-identical while
/// removing the engine construction from the per-frame hot path. Pinned
/// against std::mt19937_64 itself in util_test.
uint64_t Mt19937_64FirstDraw(uint64_t seed);

/// out[i] = Mt19937_64FirstDraw(seeds[i]) for i in [0, n), eight
/// independent 156-step init chains at a time, interleaved so the chains'
/// multiply latencies overlap instead of adding up. `out` may alias
/// `seeds`. A render run (an inference shard, a training chunk) seeds its
/// frames' noise streams through this.
void Mt19937_64FirstDraws(const uint64_t* seeds, size_t n, uint64_t* out);

/// FNV-1a hash of a string; used to derive per-stream (not per-day)
/// deterministic parameters such as diurnal phases.
uint64_t HashString(const std::string& s);

/// Order-sensitive hash accumulator for building content fingerprints of
/// configuration structs (stream configs, detector noise, NN shapes).
/// Floating-point values are mixed by bit pattern, so fingerprints change
/// exactly when the serialized value would. Stable across processes — the
/// detection store persists these on disk as cache keys.
class Fingerprint {
 public:
  Fingerprint& Mix(uint64_t v);
  Fingerprint& Mix(int64_t v) { return Mix(static_cast<uint64_t>(v)); }
  Fingerprint& Mix(int v) { return Mix(static_cast<uint64_t>(v)); }
  Fingerprint& Mix(bool v) { return Mix(static_cast<uint64_t>(v)); }
  Fingerprint& Mix(double v);
  Fingerprint& Mix(float v);
  Fingerprint& Mix(const std::string& s);
  /// Without this overload a string literal would take the built-in
  /// pointer-to-bool conversion and every literal would hash as `true`.
  Fingerprint& Mix(const char* s) { return Mix(std::string(s)); }
  template <typename T>
  Fingerprint& MixRange(const std::vector<T>& values) {
    Mix(static_cast<uint64_t>(values.size()));
    for (const T& v : values) Mix(v);
    return *this;
  }

  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0x9E3779B97F4A7C15ull;
};

}  // namespace blazeit

#endif  // BLAZEIT_UTIL_RANDOM_H_
