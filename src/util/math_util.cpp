#include "util/math_util.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace deltacol {

int floor_log2(std::uint64_t x) {
  DC_REQUIRE(x >= 1, "floor_log2 requires x >= 1");
  int r = 0;
  while (x >>= 1) ++r;
  return r;
}

int ceil_log2(std::uint64_t x) {
  DC_REQUIRE(x >= 1, "ceil_log2 requires x >= 1");
  const int f = floor_log2(x);
  return (std::uint64_t{1} << f) == x ? f : f + 1;
}

double log_base(double b, double x) {
  DC_REQUIRE(b > 1.0, "log_base requires base > 1");
  if (x <= 1.0) return 0.0;
  return std::log(x) / std::log(b);
}

namespace {
bool is_prime(std::uint64_t x) {
  if (x < 2) return false;
  if (x % 2 == 0) return x == 2;
  for (std::uint64_t d = 3; d * d <= x; d += 2) {
    if (x % d == 0) return false;
  }
  return true;
}
}  // namespace

std::uint64_t next_prime(std::uint64_t x) {
  if (x <= 2) return 2;
  while (!is_prime(x)) ++x;
  return x;
}

std::uint64_t ipow(std::uint64_t base, unsigned exp) {
  std::uint64_t result = 1;
  for (unsigned i = 0; i < exp; ++i) {
    if (base != 0 &&
        result > std::numeric_limits<std::uint64_t>::max() / base) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result *= base;
  }
  return result;
}

}  // namespace deltacol
