#include "coloring/greedy.h"

#include <algorithm>

#include "graph/traversal.h"
#include "util/check.h"

namespace deltacol {

void greedy_color_in_order(const Graph& g, const std::vector<int>& order,
                           int palette_size, Coloring& c) {
  DC_REQUIRE(static_cast<int>(c.size()) == g.num_vertices(),
             "coloring size mismatch");
  for (int v : order) {
    if (c[v] != kUncolored) continue;
    const auto color = first_free_color(g, c, v, palette_size);
    DC_ENSURE(color.has_value(), "greedy ran out of colors");
    c[v] = *color;
  }
}

std::vector<int> decreasing_bfs_order(const Graph& g, int root) {
  const auto dist = bfs_distances(g, root);
  std::vector<int> order;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] != kUnreachable) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (dist[a] != dist[b]) return dist[a] > dist[b];
    return a < b;
  });
  return order;
}

}  // namespace deltacol
