#include "mis/ruling_set.h"

#include <algorithm>

#include "coloring/linial.h"
#include "graph/frontier_bfs.h"
#include "graph/ops.h"
#include "graph/traversal.h"
#include "mis/mis.h"
#include "mis/packing.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

namespace {

// Bitwise divide-and-conquer independent set with covering radius <= #bits
// (measured in `aux`). Classes are ID prefixes; when two classes merge at bit
// level l, members of the bit-1 class adjacent to a surviving bit-0 member
// drop out. Any dropped vertex starts a chain of length <= #bits to a
// survivor, giving a (2, ceil(log2 n_aux))-ruling set of aux in that many
// aux rounds.
std::vector<bool> aglp_independent_set(const Graph& aux, RoundLedger& ledger,
                                       std::string_view phase,
                                       int rounds_per_step) {
  const int n = aux.num_vertices();
  std::vector<bool> in(static_cast<std::size_t>(n), true);
  const int bits = n <= 1 ? 1 : ceil_log2(static_cast<std::uint64_t>(n)) + 1;
  for (int level = 0; level < bits; ++level) {
    std::vector<bool> next = in;
    for (int v = 0; v < n; ++v) {
      if (!in[static_cast<std::size_t>(v)]) continue;
      if (((v >> level) & 1) == 0) continue;
      for (int u : aux.neighbors(v)) {
        if (in[static_cast<std::size_t>(u)] && ((u >> level) & 1) == 0 &&
            (u >> (level + 1)) == (v >> (level + 1))) {
          next[static_cast<std::size_t>(v)] = false;
          break;
        }
      }
    }
    in = std::move(next);
    ledger.charge(rounds_per_step, phase);
  }
  return in;
}

}  // namespace

std::vector<int> ruling_set(const Graph& g, const std::vector<int>& subset,
                            int alpha, RulingSetEngine engine, Rng* rng,
                            RoundLedger& ledger, std::string_view phase,
                            ThreadPool* pool) {
  DC_REQUIRE(alpha >= 1, "alpha must be >= 1");
  for (int s : subset) {
    DC_REQUIRE(0 <= s && s < g.num_vertices(), "subset vertex out of range");
  }
  if (subset.empty()) return {};
  if (alpha == 1) return subset;  // every vertex may be chosen

  const int per_step = alpha - 1;
  if (engine == RulingSetEngine::kDeterministic) {
    // Greedy distance-alpha packing in ID order (mis/packing.h); covering
    // radius alpha-1 follows because a skipped vertex was within alpha-1 of
    // an earlier pick. Charged at the AGLP bitwise price (see header).
    std::vector<int> out = greedy_alpha_packing(g, subset, alpha);
    const int bits =
        subset.size() <= 1
            ? 1
            : ceil_log2(static_cast<std::uint64_t>(subset.size())) + 1;
    ledger.charge(static_cast<std::int64_t>(bits) * per_step, phase);
    return out;
  }

  // Auxiliary graph on `subset`: u ~ v iff dist_G(u, v) <= alpha - 1.
  const Graph aux = power_graph(g, subset, alpha - 1, pool);
  std::vector<bool> in_set;
  switch (engine) {
    case RulingSetEngine::kRandomized: {
      DC_REQUIRE(rng != nullptr, "randomized engine needs an Rng");
      in_set = luby_mis(aux, *rng, ledger, phase, per_step, pool);
      break;
    }
    case RulingSetEngine::kDeterministic:
      DC_ENSURE(false, "handled above");
      break;
    case RulingSetEngine::kDeterministicAglpBitwise: {
      in_set = aglp_independent_set(aux, ledger, phase, per_step);
      break;
    }
    case RulingSetEngine::kDeterministicColorSweep: {
      // Linial's coloring of the auxiliary graph: each of its rounds is one
      // exchange over distance alpha-1, charged accordingly.
      RoundLedger aux_ledger;
      aux_ledger.set_congest_bits(ledger.congest_bits());
      const LinialResult lin = linial_coloring(aux, aux_ledger);
      ledger.charge(aux_ledger.total() * per_step, phase);
      in_set = mis_from_coloring(aux, lin.coloring, lin.num_colors, ledger,
                                 phase, per_step);
      break;
    }
  }
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(subset.size()); ++i) {
    if (in_set[static_cast<std::size_t>(i)]) {
      out.push_back(subset[static_cast<std::size_t>(i)]);
    }
  }
  return out;
}

int ruling_set_cover_radius(int subset_size, RulingSetEngine engine) {
  switch (engine) {
    case RulingSetEngine::kDeterministicAglpBitwise:
      return subset_size <= 1
                 ? 1
                 : ceil_log2(static_cast<std::uint64_t>(subset_size)) + 1;
    case RulingSetEngine::kDeterministic:
    case RulingSetEngine::kRandomized:
    case RulingSetEngine::kDeterministicColorSweep:
      return 1;  // greedy packing / aux-graph MIS: covering radius 1
  }
  return 1;
}

bool is_ruling_set(const Graph& g, const std::vector<int>& subset,
                   const std::vector<int>& ruling, int alpha, int beta) {
  // Packing: pairwise distance >= alpha. One scratch serves every sweep.
  BfsScratch scratch;
  for (std::size_t i = 0; i < ruling.size(); ++i) {
    scratch.run(g, ruling[i], alpha - 1);
    for (std::size_t j = 0; j < ruling.size(); ++j) {
      if (i == j) continue;
      if (scratch.visited(ruling[j])) return false;
    }
  }
  // Membership and covering.
  std::vector<bool> in_subset(static_cast<std::size_t>(g.num_vertices()), false);
  for (int s : subset) in_subset[static_cast<std::size_t>(s)] = true;
  for (int r : ruling) {
    if (!in_subset[static_cast<std::size_t>(r)]) return false;
  }
  if (ruling.empty()) return subset.empty();
  const auto cover = multi_source_bfs(g, ruling, beta);
  for (int s : subset) {
    if (cover.dist[static_cast<std::size_t>(s)] == kUnreachable) return false;
  }
  return true;
}

}  // namespace deltacol
