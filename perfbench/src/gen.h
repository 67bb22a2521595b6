// Workload generators of the benchmark. They live here, not in the library,
// so a change to the library's own generators never changes the inputs: the
// program under test only ever sees the edge-list file written below.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct EdgeList {
  int n = 0;
  std::vector<std::pair<int, int>> edges;
};

// Uniform-ish random d-regular simple graph: configuration model, then
// self-loops and multi-edges are repaired by random edge swaps.
EdgeList random_regular(int n, int d, std::uint64_t seed);

// rows x cols torus (4-regular) with vertex ids scrambled by a seeded
// permutation, which defeats construction-order cache locality.
EdgeList scrambled_torus(int rows, int cols, std::uint64_t seed);

// Writes the graph/io.h edge-list format ("n m" header, one "u v" per line).
void write_edge_list(const EdgeList& g, const std::string& path);

}  // namespace perfbench
