#include "coloring/linial.h"

#include <algorithm>
#include <cmath>

#include "coloring/list_coloring.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

namespace {

// Choose (q, d) for reducing m colors: d digits over GF(q) must encode m
// colors (q^d >= m) and q > Delta*(d-1) must leave a free evaluation point.
// Returns the pair minimizing the new palette q^2.
struct Params {
  std::uint64_t q;
  int d;
};
Params choose_params(std::uint64_t m, int delta) {
  Params best{0, 0};
  std::uint64_t best_new_m = ~0ULL;
  for (int d = 2; d <= 40; ++d) {
    // Smallest q satisfying both constraints.
    const auto root = static_cast<std::uint64_t>(
        std::ceil(std::pow(static_cast<double>(m), 1.0 / d)));
    std::uint64_t q = next_prime(std::max<std::uint64_t>(
        root, static_cast<std::uint64_t>(delta) * (d - 1) + 1));
    while (ipow(q, static_cast<unsigned>(d)) < m) q = next_prime(q + 1);
    const std::uint64_t new_m = q * q;
    if (new_m < best_new_m) {
      best_new_m = new_m;
      best = {q, d};
    }
  }
  DC_ENSURE(best.q > 0, "no Linial parameters found");
  return best;
}

}  // namespace

LinialResult linial_coloring(const Graph& g, RoundLedger& ledger,
                             ThreadPool* pool) {
  const int n = g.num_vertices();
  const int delta = std::max(1, g.max_degree());
  LinialResult res;
  res.coloring.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) res.coloring[static_cast<std::size_t>(v)] = v;
  std::uint64_t m = std::max<std::uint64_t>(2, static_cast<std::uint64_t>(n));

  for (;;) {
    const Params p = choose_params(m, delta);
    const std::uint64_t new_m = p.q * p.q;
    if (new_m >= m) break;  // reached the O(Delta^2) fixpoint
    // q^2 < m <= max(2, n) < 2^31, so q <= 46,340: a digit fits in 16 bits
    // and a Horner step acc * x + digit (each below q) stays under 2^31.
    DC_ENSURE(p.q <= 46340, "Linial modulus exceeds the 16-bit digit range");
    const auto q = static_cast<std::uint32_t>(p.q);
    const auto d = static_cast<std::size_t>(p.d);
    // Every vertex's d base-q digits, lowest first, extracted once a round.
    std::vector<std::uint16_t> digits(static_cast<std::size_t>(n) * d);
    pooled_for(pool, 0, n, [&](int v) {
      auto color =
          static_cast<std::uint32_t>(res.coloring[static_cast<std::size_t>(v)]);
      std::uint16_t* out = &digits[static_cast<std::size_t>(v) * d];
      for (std::size_t i = 0; i < d; ++i) {
        out[i] = static_cast<std::uint16_t>(color % q);
        color /= q;
      }
    });
    // p(x) = sum_i digit_i * x^i mod q, by Horner from the highest digit.
    const auto eval = [&](int v, std::uint32_t x) {
      const std::uint16_t* dv = &digits[static_cast<std::size_t>(v) * d];
      std::uint32_t acc = 0;
      for (std::size_t i = d; i-- > 0;) acc = (acc * x + dv[i]) % q;
      return acc;
    };
    // One synchronous round: nodes exchange current colors, then each picks
    // the first evaluation point where its polynomial differs from every
    // neighbor's (distinct colors are distinct polynomials). Each node reads
    // the digit table and writes next[v]: a parallel-for.
    Coloring next(static_cast<std::size_t>(n), kUncolored);
    pooled_for(pool, 0, n, [&](int v) {
      const auto free_at = [&](std::uint32_t x) {
        const std::uint32_t pv = eval(v, x);
        for (int u : g.neighbors(v)) {
          if (eval(u, x) == pv) return false;
        }
        return true;
      };
      std::uint32_t x = 0;
      while (x < q && !free_at(x)) ++x;
      DC_ENSURE(x < q,
                "Linial step found no valid evaluation point (q too small?)");
      next[static_cast<std::size_t>(v)] = static_cast<int>(x * q + eval(v, x));
    });
    res.coloring = std::move(next);
    m = new_m;
    ++res.rounds;
    ledger.charge(1, "linial");
  }
  res.num_colors = static_cast<int>(m);
  DC_ENSURE(is_proper_with_palette(g, res.coloring, res.num_colors),
            "Linial produced an improper coloring");
  return res;
}

LinialResult reduce_to_delta_plus_one(const Graph& g, const Coloring& start,
                                      int start_colors, RoundLedger& ledger,
                                      ThreadPool* pool) {
  DC_REQUIRE(is_proper_with_palette(g, start, start_colors),
             "reduction input must be a proper coloring");
  const int target = g.max_degree() + 1;
  LinialResult res;
  res.coloring = start;
  res.num_colors = std::max(target, start_colors);
  // Class c >= target is swept as schedule class start_colors - 1 - c, so
  // the highest class goes first. A class is an independent set: all its
  // members recolor simultaneously to their smallest free color below
  // target, and no neighbor of a member is in its class, so the reads are
  // stable under the parallel-for. Members leave their class for good.
  std::vector<int> members;
  Coloring step(start.size());
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int c = start[static_cast<std::size_t>(v)];
    if (c >= target) {
      members.push_back(v);
      step[static_cast<std::size_t>(v)] = start_colors - 1 - c;
    }
  }
  res.rounds = std::max(0, start_colors - target);
  sweep_schedule_classes(
      members, step, res.rounds,
      [&](int v) {
        res.coloring[static_cast<std::size_t>(v)] =
            first_free_color(g, res.coloring, v, target).value();
      },
      ledger, "color-reduction", pool);
  res.num_colors = target;
  DC_ENSURE(is_proper_with_palette(g, res.coloring, res.num_colors),
            "color reduction broke the coloring");
  return res;
}

LinialResult delta_plus_one_schedule(const Graph& g, RoundLedger& ledger,
                                     ThreadPool* pool) {
  const LinialResult lin = linial_coloring(g, ledger, pool);
  LinialResult red =
      reduce_to_delta_plus_one(g, lin.coloring, lin.num_colors, ledger, pool);
  red.rounds += lin.rounds;
  return red;
}

}  // namespace deltacol
