#ifndef BLAZEIT_UTIL_CPU_FEATURES_H_
#define BLAZEIT_UTIL_CPU_FEATURES_H_

namespace blazeit {

/// Runtime ISA tiers of the hot-path kernels. The kernels in
/// video/raster_kernels.* and nn/matmul_kernels.* dispatch AVX-512 →
/// AVX2 → scalar at runtime (the feature pooling and
/// nn/elementwise_kernels.* AVX-512 → scalar), so the library binary
/// stays baseline x86-64 portable while using the widest vectors
/// available. Every SIMD tier is
/// bit-identical to the scalar fallback by construction (element-wise
/// lanes, no FMA contraction, no reassociation), so dispatch never
/// changes query outputs — only wall clock.
///
/// Environment overrides (each checked once, at first call; used by tests
/// to exercise every dispatch arm on one machine):
///   BLAZEIT_DISABLE_SIMD=1    force the scalar paths everywhere
///   BLAZEIT_DISABLE_AVX512=1  cap dispatch at the AVX2 tier

/// True if the CPU supports the AVX-512 subset used by the kernels
/// (F + DQ: 512-bit float math, 64-bit integer multiplies, gathers).
bool CpuHasAvx512();

/// True if the CPU supports AVX2 (256-bit integer ops and gathers; the
/// mid tier between AVX-512 and scalar).
bool CpuHasAvx2();

/// Name of the widest tier dispatch will pick: "avx512", "avx2", or
/// "scalar". Stable for the process lifetime (detection and overrides are
/// latched at first call); used as a metric label for kernel accounting.
const char* ActiveSimdTierName();

}  // namespace blazeit

#endif  // BLAZEIT_UTIL_CPU_FEATURES_H_
