// Small integer/number-theory helpers used by the coloring algorithms.
#pragma once

#include <cstdint>

namespace deltacol {

// floor(log2(x)) for x >= 1.
int floor_log2(std::uint64_t x);

// ceil(log2(x)) for x >= 1.
int ceil_log2(std::uint64_t x);

// log base b of x, for b > 1 and x >= 1 (returns 0 for x <= 1).
double log_base(double b, double x);

// Smallest prime >= x (x >= 2). Deterministic trial division; only used for
// parameters of size poly(Delta, log n), so speed is a non-issue.
std::uint64_t next_prime(std::uint64_t x);

// Integer power with overflow saturation at UINT64_MAX.
std::uint64_t ipow(std::uint64_t base, unsigned exp);

// ceil(a / b) for positive integers.
inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace deltacol
