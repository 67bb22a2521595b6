// Sequential greedy coloring in a given order, plus the ordering helper the
// constructive Brooks and degree-choosable colorers feed it.
#pragma once

#include <vector>

#include "coloring/coloring.h"
#include "graph/graph.h"

namespace deltacol {

// Colors the vertices in the given order, each with its smallest free color
// from {0..palette_size-1}. Pre-colored vertices (c[v] != kUncolored on
// entry) are respected and skipped. Throws if some vertex has no free color.
void greedy_color_in_order(const Graph& g, const std::vector<int>& order,
                           int palette_size, Coloring& c);

// Vertices in order of decreasing BFS distance from root (farthest first,
// root last). Within a distance layer, increasing id. Only vertices reachable
// from root are included.
std::vector<int> decreasing_bfs_order(const Graph& g, int root);

}  // namespace deltacol
