// Frequency assignment in a radio mesh network.
//
// Transmitters on a grid-with-holes interfere with their neighbors; a
// proper vertex coloring is a frequency plan, and every color is a leased
// channel. Delta-coloring (instead of the trivial Delta+1) saves exactly
// one channel — the paper's classic motivation. The network is a torus-like
// mesh with random dead nodes, so it is neither complete nor an odd cycle
// and Brooks' theorem applies.
//
//   ./frequency_assignment [rows] [cols] [seed]
#include <climits>
#include <cstdint>
#include <iostream>

#include "core/api.h"
#include "flag_parse.h"
#include "graph/generators.h"
#include "graph/ops.h"

using namespace deltacol;

int main(int argc, char** argv) {
  int rows = 0;
  int cols = 0;
  std::uint64_t seed = 0;
  try {
    using flag_parse::positional;
    if (argc > 4) {
      throw flag_parse::UsageError(
          "usage: frequency_assignment [rows] [cols] [seed]");
    }
    rows = positional(argc, argv, 1, "rows", 40, 1, INT_MAX);
    cols = positional(argc, argv, 2, "cols", 40, 1, INT_MAX);
    seed = positional<std::uint64_t>(argc, argv, 3, "seed", 7, 0, UINT64_MAX);
  } catch (const flag_parse::UsageError& e) {
    std::cerr << "frequency_assignment: " << e.what() << "\n";
    return 2;
  }

  // Torus mesh with ~5% dead transmitters removed.
  const Graph full = grid_graph(rows, cols, true);
  Rng rng(seed);
  std::vector<int> dead;
  for (int v = 0; v < full.num_vertices(); ++v) {
    if (rng.next_bool(0.05)) dead.push_back(v);
  }
  const Subgraph mesh = remove_vertices(full, dead);
  const Graph& g = mesh.graph;
  std::cout << "radio mesh: " << g.num_vertices() << " transmitters, "
            << g.num_edges() << " interference links, max degree "
            << g.max_degree() << "\n";

  DeltaColoringOptions opt;
  opt.seed = seed;
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  validate_delta_coloring(g, res.coloring, res.delta);

  std::vector<int> channel_load(static_cast<std::size_t>(res.delta), 0);
  for (Color c : res.coloring) ++channel_load[static_cast<std::size_t>(c)];
  std::cout << "frequency plan with " << res.delta << " channels (greedy would "
            << "lease " << res.delta + 1 << "):\n";
  for (int c = 0; c < res.delta; ++c) {
    std::cout << "  channel " << c << ": "
              << channel_load[static_cast<std::size_t>(c)] << " transmitters\n";
  }
  std::cout << "distributed rounds to converge: " << res.ledger.total() << "\n";
  return 0;
}
