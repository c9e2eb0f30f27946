#include "common/mathutil.h"

#include <bit>
#include <cmath>

#include "common/check.h"

namespace bcclb {

double harmonic(std::uint64_t n) {
  // Direct sum for small n; asymptotic expansion beyond that keeps this O(1)
  // without visible error (the expansion is accurate to ~1e-12 at n = 1e4).
  if (n == 0) return 0.0;
  if (n <= 10000) {
    double h = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
    return h;
  }
  const double x = static_cast<double>(n);
  const double euler_mascheroni = 0.5772156649015328606;
  return std::log(x) + euler_mascheroni + 1.0 / (2 * x) - 1.0 / (12 * x * x);
}

double log2_factorial(std::uint64_t n) {
  return std::lgamma(static_cast<double>(n) + 1.0) / std::log(2.0);
}

double log2_double_factorial_odd(std::uint64_t n) {
  BCCLB_REQUIRE(n % 2 == 0, "n must be even");
  const std::uint64_t half = n / 2;
  return log2_factorial(n) - static_cast<double>(half) - log2_factorial(half);
}

std::uint64_t perfect_matching_count(std::uint64_t n) {
  BCCLB_REQUIRE(n % 2 == 0, "n must be even");
  // (n-1)!! = (n-1)(n-3)...(3)(1).
  std::uint64_t r = 1;
  for (std::uint64_t k = n; k >= 2; k -= 2) {
    const std::uint64_t factor = k - 1;
    BCCLB_REQUIRE(factor == 0 || r <= UINT64_MAX / (factor == 0 ? 1 : factor),
                  "perfect_matching_count overflow");
    r *= factor;
  }
  return r;
}

unsigned ceil_log2(std::uint64_t v) {
  BCCLB_REQUIRE(v >= 1, "ceil_log2 requires v >= 1");
  return v == 1 ? 0 : static_cast<unsigned>(64 - std::countl_zero(v - 1));
}

unsigned bit_width_u64(std::uint64_t v) {
  return static_cast<unsigned>(std::bit_width(v));
}

}  // namespace bcclb
