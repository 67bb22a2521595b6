// Deterministic, seedable random number generation.
//
// All randomized algorithms in this library draw from an explicitly passed
// Rng so that every experiment is reproducible from a seed. The generator is
// Xoshiro256** seeded via SplitMix64, which is fast and has no observable
// correlations at the sizes we simulate.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace deltacol {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  std::uint64_t next_u64();

  // Uniform integer in [0, bound). bound must be positive.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int next_int(int lo, int hi);

  // Uniform double in [0, 1).
  double next_double();

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p);

  // Derive an independent child generator; used to give each simulated node
  // its own private randomness (LOCAL-model nodes do not share coins).
  Rng split();

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace deltacol
