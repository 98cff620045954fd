#include "util/random.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define BLAZEIT_X86_64 1
#endif

#include "util/cpu_features.h"

namespace blazeit {

namespace {

// std::mt19937_64's parameters: word size 64, n = 312 state words, middle
// offset m = 156, r = 31 lower bits in the twist, the twist matrix, the
// seeding multiplier and the four tempering shifts and masks.
constexpr size_t kN = Mt19937_64::kStateWords;
constexpr size_t kM = 156;
constexpr uint64_t kInitMul = 6364136223846793005ULL;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
constexpr uint64_t kLowerMask = 0x000000007FFFFFFFULL;
constexpr uint64_t kTemperD = 0x5555555555555555ULL;
constexpr uint64_t kTemperB = 0x71D67FFFEDA60000ULL;
constexpr uint64_t kTemperC = 0xFFF7EEE000000000ULL;

uint64_t Temper(uint64_t y) {
  y ^= (y >> 29) & kTemperD;
  y ^= (y << 17) & kTemperB;
  y ^= (y << 37) & kTemperC;
  return y ^ (y >> 43);
}

/// One twisted state word: the upper bit of `upper`, the lower 31 bits of
/// `lower`, shifted into `mid` through the twist matrix. The library's
/// `(y & 1) ? A : 0` is written as a mask, which compiles without the
/// branch it mispredicts on every other word.
uint64_t Twisted(uint64_t upper, uint64_t lower, uint64_t mid) {
  const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return mid ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

/// The reference refill: libstdc++'s three twist loops, in its in-place
/// order (words below k are already new, words above it still old), then
/// every word tempered.
void RefillScalar(uint64_t* x, uint64_t* block) {
  size_t k = 0;
  for (; k < kN - kM; ++k) x[k] = Twisted(x[k], x[k + 1], x[k + kM]);
  for (; k < kN - 1; ++k) x[k] = Twisted(x[k], x[k + 1], x[k + kM - kN]);
  x[kN - 1] = Twisted(x[kN - 1], x[0], x[kM - 1]);
  for (k = 0; k < kN; ++k) block[k] = Temper(x[k]);
}

/// Lemire's mapping of one engine output to [0, range), as libstdc++'s
/// uniform_int_distribution computes it: false when the output is
/// rejected (its low product word falls below 2^64 mod range).
bool LemireIndex(uint64_t word, uint64_t range, uint64_t threshold,
                 uint64_t* index) {
  __extension__ using U128 = unsigned __int128;
  const U128 product = static_cast<U128>(word) * range;
  if (static_cast<uint64_t>(product) < threshold) return false;
  *index = static_cast<uint64_t>(product >> 64);
  return true;
}

/// LemireIndex over words[0, n) until the first rejection; returns how
/// many words it mapped.
size_t MapIndicesScalar(const uint64_t* words, size_t n, uint64_t range,
                        uint64_t threshold, uint64_t* out) {
  size_t i = 0;
  while (i < n && LemireIndex(words[i], range, threshold, out + i)) ++i;
  return i;
}

#ifdef BLAZEIT_X86_64

// GCC 12's shift intrinsics expand through an uninitialized placeholder
// vector, tripping -Wuninitialized at -O2 (the same false positive
// video/raster_kernels.cc silences); the pattern is well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Words k .. k+7 of the twist, which read no word another of them
/// writes, and their tempered outputs. `mid` points at word (k + m) mod n.
/// Bit selects and three-way xors are single ternary-logic ops; their
/// immediates are the truth tables of the scalar expressions.
__attribute__((target("avx512f"), always_inline)) inline void TwistTemper8(
    uint64_t* state, uint64_t* block, size_t k, const uint64_t* mid) {
  constexpr int kSelect = 0xCA;  // a ? b : c, bitwise
  constexpr int kXor3 = 0x96;    // a ^ b ^ c
  constexpr int kXorAnd = 0x78;  // a ^ (b & c)
  const __m512i upper = _mm512_set1_epi64(static_cast<long long>(kUpperMask));
  // y = (x[k] & upper) | (x[k + 1] & lower), lower being ~upper.
  const __m512i y = _mm512_ternarylogic_epi64(
      upper, _mm512_loadu_si512(state + k), _mm512_loadu_si512(state + k + 1),
      kSelect);
  // (y & 1) ? A : 0.
  const __m512i mag = _mm512_maskz_mov_epi64(
      _mm512_test_epi64_mask(y, _mm512_set1_epi64(1)),
      _mm512_set1_epi64(static_cast<long long>(kMatrixA)));
  __m512i z = _mm512_ternarylogic_epi64(_mm512_loadu_si512(mid),
                                        _mm512_srli_epi64(y, 1), mag, kXor3);
  _mm512_storeu_si512(state + k, z);
  z = _mm512_ternarylogic_epi64(
      z, _mm512_srli_epi64(z, 29),
      _mm512_set1_epi64(static_cast<long long>(kTemperD)), kXorAnd);
  z = _mm512_ternarylogic_epi64(
      z, _mm512_slli_epi64(z, 17),
      _mm512_set1_epi64(static_cast<long long>(kTemperB)), kXorAnd);
  z = _mm512_ternarylogic_epi64(
      z, _mm512_slli_epi64(z, 37),
      _mm512_set1_epi64(static_cast<long long>(kTemperC)), kXorAnd);
  _mm512_storeu_si512(block + k, _mm512_xor_si512(z, _mm512_srli_epi64(z, 43)));
}

/// The refill, eight words per vector: words [0, 152) read old words only,
/// words [156, 308) read new words [0, 152) and old ones, and the eight
/// words at the two wraps of the (k + m) and (k + 1) indices run the
/// scalar step.
__attribute__((target("avx512f"))) void RefillAvx512(uint64_t* state,
                                                      uint64_t* block) {
  constexpr size_t kWrap = kN - kM;  // 156: where (k + m) wraps to 0
  size_t k = 0;
  for (; k + 8 <= kWrap; k += 8) TwistTemper8(state, block, k, state + k + kM);
  for (; k < kWrap; ++k) {
    state[k] = Twisted(state[k], state[k + 1], state[k + kM]);
    block[k] = Temper(state[k]);
  }
  for (; k + 8 < kN; k += 8) TwistTemper8(state, block, k, state + k - kWrap);
  for (; k < kN; ++k) {
    state[k] = Twisted(state[k], state[(k + 1) % kN], state[k - kWrap]);
    block[k] = Temper(state[k]);
  }
}

/// MapIndicesScalar four words per vector, for range <= 2^32 - 1: with a
/// word w = a * 2^32 + b, the product w * range is (a * range) * 2^32 +
/// b * range, two exact 32x32 -> 64-bit products, so its high and low
/// words come out of 64-bit lane adds and shifts without overflow. A
/// vector holding a rejection leaves that vector to the scalar loop. Four
/// words per AVX2 vector rather than eight per AVX-512 one: on a 4-vCPU
/// Emerald Rapids Xeon the 512-bit multiplies, run once per aggregate
/// query, slowed the scalar serving stages after them (serve-mix traced
/// detect.ms 0.36 -> 0.51 ms, core.track_ms 0.69 -> 0.86 ms per query),
/// and the 256-bit form, no slower here, did not.
__attribute__((target("avx2"))) size_t MapIndicesAvx2(const uint64_t* words,
                                                      size_t n, uint64_t range,
                                                      uint64_t threshold,
                                                      uint64_t* out) {
  const __m256i r = _mm256_set1_epi64x(static_cast<long long>(range));
  // Unsigned 64-bit compares as signed ones, on operands with the sign bit
  // flipped.
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i t = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(threshold)), sign);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i br = _mm256_mul_epu32(w, r);
    const __m256i ar = _mm256_mul_epu32(_mm256_srli_epi64(w, 32), r);
    const __m256i low = _mm256_add_epi64(_mm256_slli_epi64(ar, 32), br);
    const __m256i rejected =
        _mm256_cmpgt_epi64(t, _mm256_xor_si256(low, sign));
    if (!_mm256_testz_si256(rejected, rejected)) break;
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_srli_epi64(_mm256_add_epi64(ar, _mm256_srli_epi64(br, 32)),
                          32));
  }
  return i + MapIndicesScalar(words + i, n - i, range, threshold, out + i);
}

#pragma GCC diagnostic pop

#endif  // BLAZEIT_X86_64

/// Maps words[0, n) to indices in [0, range) until the first rejection;
/// returns how many it mapped.
size_t MapIndices(const uint64_t* words, size_t n, uint64_t range,
                  uint64_t threshold, uint64_t* out) {
#ifdef BLAZEIT_X86_64
  if (range <= 0xFFFFFFFFULL && CpuHasAvx2()) {
    return MapIndicesAvx2(words, n, range, threshold, out);
  }
#endif
  return MapIndicesScalar(words, n, range, threshold, out);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kN; ++i) {
    state_[i] = kInitMul * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
  }
}

void Mt19937_64::Refill() {
  pos_ = 0;
#ifdef BLAZEIT_X86_64
  if (CpuHasAvx512()) return RefillAvx512(state_, block_);
#endif
  RefillScalar(state_, block_);
}

double Rng::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
}

void Rng::UniformIndices(uint64_t range, size_t count, uint64_t* out) {
  const uint64_t threshold = (0 - range) % range;
  size_t done = 0;
  while (done < count) {
    size_t avail = 0;
    const uint64_t* words = engine_.Peek(&avail);
    const size_t take = std::min(avail, count - done);
    const size_t mapped = MapIndices(words, take, range, threshold, out + done);
    engine_.Skip(mapped);
    done += mapped;
    if (mapped < take) {
      // A rejection (probability below range / 2^64 per output): the
      // library redraws until an output is accepted.
      engine_.Skip(1);
      while (!LemireIndex(engine_(), range, threshold, out + done)) {
      }
      ++done;
    }
  }
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
  // Seed initialization: mt[0] = seed, mt[i] = f * (mt[i-1] ^ (mt[i-1] >>
  // 62)) + i. The first twist step only reads mt[0], mt[1], and mt[m], so
  // run the init recurrence to index m and skip the other 155 words plus
  // the full-state twist.
  uint64_t prev = seed;
  uint64_t mt1 = 0;
  for (uint64_t i = 1; i <= kM; ++i) {
    prev = kInitMul * (prev ^ (prev >> 62)) + i;
    if (i == 1) mt1 = prev;
  }
  return Temper(Twisted(seed, mt1, prev));
}

namespace {

constexpr size_t kFirstDrawLanes = 8;

/// Mt19937_64FirstDraw of seeds[0, 8), the eight chains stepped together.
void FirstDraws8(const uint64_t* seeds, uint64_t* out) {
  uint64_t prev[kFirstDrawLanes];
  uint64_t mt1[kFirstDrawLanes];
  for (size_t l = 0; l < kFirstDrawLanes; ++l) {
    prev[l] = kInitMul * (seeds[l] ^ (seeds[l] >> 62)) + 1;
    mt1[l] = prev[l];
  }
  for (uint64_t i = 2; i <= kM; ++i) {
    // Unrolled, the eight states stay in registers across steps.
#pragma GCC unroll 8
    for (size_t l = 0; l < kFirstDrawLanes; ++l) {
      prev[l] = kInitMul * (prev[l] ^ (prev[l] >> 62)) + i;
    }
  }
  for (size_t l = 0; l < kFirstDrawLanes; ++l) {
    out[l] = Temper(Twisted(seeds[l], mt1[l], prev[l]));
  }
}

}  // namespace

void Mt19937_64FirstDraws(const uint64_t* seeds, size_t n, uint64_t* out) {
  uint64_t lanes[kFirstDrawLanes];
  for (size_t i = 0; i < n; i += kFirstDrawLanes) {
    const size_t count = std::min(kFirstDrawLanes, n - i);
    // A short last group repeats its first seed in the idle lanes.
    for (size_t l = 0; l < kFirstDrawLanes; ++l) {
      lanes[l] = seeds[i + (l < count ? l : 0)];
    }
    FirstDraws8(lanes, lanes);
    std::copy_n(lanes, count, out + i);
  }
}

}  // namespace blazeit
