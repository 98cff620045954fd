#include "util/random.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

namespace blazeit {

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
}

double Rng::Normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

int Rng::Poisson(double mean) {
  if (mean <= 0.0) return 0;
  return std::poisson_distribution<int>(mean)(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

double Rng::LogNormal(double log_mean, double log_sigma) {
  return std::lognormal_distribution<double>(log_mean, log_sigma)(engine_);
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  std::vector<int64_t> out;
  if (n <= 0) return out;
  if (k >= n) {
    out.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = i;
    return out;
  }
  // Floyd's algorithm: k draws, O(k) memory.
  std::unordered_set<int64_t> seen;
  seen.reserve(static_cast<size_t>(k));
  for (int64_t j = n - k; j < n; ++j) {
    int64_t t = UniformInt(0, j);
    if (seen.count(t)) t = j;
    seen.insert(t);
    out.push_back(t);
  }
  return out;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  // SplitMix64 finalizer over the xor-combination.
  uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Fingerprint& Fingerprint::Mix(uint64_t v) {
  state_ = HashCombine(state_, v);
  return *this;
}

Fingerprint& Fingerprint::Mix(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(bits);
}

Fingerprint& Fingerprint::Mix(float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(static_cast<uint64_t>(bits));
}

Fingerprint& Fingerprint::Mix(const std::string& s) {
  return Mix(HashString(s));
}


uint64_t Mt19937_64FirstDraw(uint64_t seed) {
  // std::mt19937_64 parameters (w=64, n=312, m=156, r=31). Seed
  // initialization: mt[0] = seed, mt[i] = f * (mt[i-1] ^ (mt[i-1] >> 62))
  // + i. The first twist step only reads mt[0], mt[1], and mt[m], so run
  // the init recurrence to index m and skip the other 155 words plus the
  // full-state twist.
  constexpr uint64_t kInitMul = 6364136223846793005ULL;
  constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
  constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
  constexpr uint64_t kLowerMask = 0x000000007FFFFFFFULL;
  const uint64_t mt0 = seed;
  uint64_t prev = seed;
  uint64_t mt1 = 0;
  uint64_t mt156 = 0;
  for (uint64_t i = 1; i <= 156; ++i) {
    prev = kInitMul * (prev ^ (prev >> 62)) + i;
    if (i == 1) mt1 = prev;
  }
  mt156 = prev;
  const uint64_t x = (mt0 & kUpperMask) | (mt1 & kLowerMask);
  uint64_t y = mt156 ^ (x >> 1) ^ ((x & 1) ? kMatrixA : 0);
  // Tempering.
  y ^= (y >> 29) & 0x5555555555555555ULL;
  y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
  y ^= (y << 37) & 0xFFF7EEE000000000ULL;
  y ^= y >> 43;
  return y;
}

}  // namespace blazeit
