// Quickstart: Delta-color a graph with every algorithm in the library and
// compare round counts.
//
//   ./quickstart [n] [delta] [seed]
//
// Builds a random Delta-regular graph, runs the paper's algorithms
// (Theorems 1, 3, 4) and the two baselines, validates each coloring, and
// prints the per-phase round ledger of the randomized algorithm.
#include <climits>
#include <cstdint>
#include <iostream>

#include "core/api.h"
#include "flag_parse.h"
#include "graph/generators.h"

using namespace deltacol;

int main(int argc, char** argv) {
  int n = 0;
  int delta = 0;
  std::uint64_t seed = 0;
  try {
    using flag_parse::positional;
    if (argc > 4) {
      throw flag_parse::UsageError("usage: quickstart [n] [delta] [seed]");
    }
    n = positional(argc, argv, 1, "n", 4096, 1, INT_MAX);
    delta = positional(argc, argv, 2, "delta", 4, 1, INT_MAX);
    seed = positional<std::uint64_t>(argc, argv, 3, "seed", 1, 0, UINT64_MAX);
  } catch (const flag_parse::UsageError& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 2;
  }

  Rng rng(seed);
  const Graph g = random_regular(n, delta, rng);
  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " Delta=" << g.max_degree() << "\n\n";

  for (Algorithm alg :
       {Algorithm::kRandomizedSmall, Algorithm::kRandomizedLarge,
        Algorithm::kDeterministic, Algorithm::kBaselineND,
        Algorithm::kBaselineGreedyBrooks}) {
    if (alg == Algorithm::kRandomizedLarge && delta < 4) continue;
    DeltaColoringOptions opt;
    opt.seed = seed;
    const DeltaColoringResult res = delta_color(g, alg, opt);
    validate_delta_coloring(g, res.coloring, res.delta);  // throws if invalid
    std::cout << algorithm_name(alg) << "\n  rounds: " << res.ledger.total()
              << "  (colors used: " << num_colors_used(res.coloring) << "/"
              << res.delta << ")\n";
  }

  std::cout << "\nper-phase ledger of the randomized small-Delta run:\n";
  DeltaColoringOptions opt;
  opt.seed = seed;
  const auto res = delta_color(g, Algorithm::kRandomizedSmall, opt);
  std::cout << res.ledger.report();
  std::cout << "T-nodes: " << res.stats.num_tnodes
            << ", DCCs selected: " << res.stats.num_dccs_selected
            << ", leftover vertices: " << res.stats.leftover_vertices << "\n";
  return 0;
}
