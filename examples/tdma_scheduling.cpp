// TDMA slot assignment for wireless links.
//
// Links that share an endpoint cannot transmit in the same slot: slots are
// a proper coloring of the LINE GRAPH of the network. For a network with
// max degree d, the line graph has max degree Delta_L = 2d - 2, and
// Delta_L-coloring it packs the schedule into one slot less than greedy.
// Line graphs of d >= 3 networks are nice graphs, so the paper's algorithms
// apply directly.
//
//   ./tdma_scheduling [n] [d] [seed]
#include <climits>
#include <cstdint>
#include <iostream>

#include "core/api.h"
#include "flag_parse.h"
#include "graph/generators.h"

using namespace deltacol;

namespace {

// The line graph: one vertex per edge of g, adjacent when edges share an
// endpoint.
Graph line_graph(const Graph& g, std::vector<Edge>& edge_of_vertex) {
  edge_of_vertex = g.edge_list();
  std::vector<int> idx(edge_of_vertex.size());
  // Bucket edge indices by endpoint.
  std::vector<std::vector<int>> at(static_cast<std::size_t>(g.num_vertices()));
  for (int e = 0; e < static_cast<int>(edge_of_vertex.size()); ++e) {
    at[static_cast<std::size_t>(edge_of_vertex[static_cast<std::size_t>(e)].first)]
        .push_back(e);
    at[static_cast<std::size_t>(edge_of_vertex[static_cast<std::size_t>(e)].second)]
        .push_back(e);
  }
  std::vector<Edge> ledges;
  for (const auto& bucket : at) {
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        ledges.emplace_back(bucket[i], bucket[j]);
      }
    }
  }
  return Graph::from_edges(static_cast<int>(edge_of_vertex.size()), ledges);
}

}  // namespace

int main(int argc, char** argv) {
  int n = 0;
  int d = 0;
  std::uint64_t seed = 0;
  try {
    using flag_parse::positional;
    if (argc > 4) {
      throw flag_parse::UsageError("usage: tdma_scheduling [n] [d] [seed]");
    }
    n = positional(argc, argv, 1, "n", 600, 1, INT_MAX);
    d = positional(argc, argv, 2, "d", 4, 1, INT_MAX);
    seed = positional<std::uint64_t>(argc, argv, 3, "seed", 3, 0, UINT64_MAX);
  } catch (const flag_parse::UsageError& e) {
    std::cerr << "tdma_scheduling: " << e.what() << "\n";
    return 2;
  }

  Rng rng(seed);
  const Graph net = random_regular(n, d, rng);
  std::vector<Edge> links;
  const Graph lg = line_graph(net, links);
  std::cout << "network: " << net.num_vertices() << " stations, "
            << links.size() << " links; conflict graph max degree "
            << lg.max_degree() << "\n";

  DeltaColoringOptions opt;
  opt.seed = seed;
  const auto res = delta_color(lg, Algorithm::kRandomizedLarge, opt);
  validate_delta_coloring(lg, res.coloring, res.delta);

  // Verify the schedule as a schedule: no station transmits twice per slot.
  const int slots = num_colors_used(res.coloring);
  std::vector<std::vector<int>> station_slot(
      static_cast<std::size_t>(net.num_vertices()),
      std::vector<int>(static_cast<std::size_t>(slots), 0));
  for (int e = 0; e < static_cast<int>(links.size()); ++e) {
    const auto [a, b] = links[static_cast<std::size_t>(e)];
    const int s = res.coloring[static_cast<std::size_t>(e)];
    if (++station_slot[static_cast<std::size_t>(a)][static_cast<std::size_t>(s)] > 1 ||
        ++station_slot[static_cast<std::size_t>(b)][static_cast<std::size_t>(s)] > 1) {
      std::cerr << "schedule conflict at station!\n";
      return 1;
    }
  }
  std::cout << "TDMA frame: " << slots << " slots (trivial greedy frame: "
            << lg.max_degree() + 1 << ")\n"
            << "distributed rounds: " << res.ledger.total() << "\n";
  return 0;
}
