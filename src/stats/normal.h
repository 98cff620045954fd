#ifndef BLAZEIT_STATS_NORMAL_H_
#define BLAZEIT_STATS_NORMAL_H_

namespace blazeit {

/// Standard normal cumulative distribution function.
double NormalCdf(double x);

/// Percent point function (inverse CDF) of the standard normal — the Q
/// function of the paper's CLT termination bound (Section 6.1). Uses
/// Acklam's rational approximation refined with one Halley step; accurate
/// to ~1e-9 over (0, 1).
double NormalPpf(double p);

/// Two-sided z-value for a confidence level, e.g. 0.95 -> 1.9599.
double TwoSidedZ(double confidence);

}  // namespace blazeit

#endif  // BLAZEIT_STATS_NORMAL_H_
