// Helpers shared by several suites: the FNV-1a fold behind every frozen
// hash, and the id-scrambled torus workload.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace deltacol::test_support {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// Folds the 8 bytes of x, least significant first, into h.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A rows x cols torus whose ids are a seeded random permutation, so balls
// and BFS growth are not laid out in id order.
inline Graph scrambled_torus(int rows, int cols, std::uint64_t seed) {
  const Graph t = grid_graph(rows, cols, true);
  std::vector<int> perm(static_cast<std::size_t>(t.num_vertices()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  rng.shuffle(perm);
  std::vector<Edge> edges;
  for (const auto& [u, v] : t.edge_list()) {
    edges.emplace_back(perm[static_cast<std::size_t>(u)],
                       perm[static_cast<std::size_t>(v)]);
  }
  return Graph::from_edges(t.num_vertices(), edges);
}

}  // namespace deltacol::test_support
