#include "graph/traversal.h"

#include <algorithm>

#include "graph/frontier_bfs.h"
#include "util/check.h"

namespace deltacol {

std::vector<int> bfs_distances(const Graph& g, int source, int max_dist) {
  DC_REQUIRE(0 <= source && source < g.num_vertices(), "source out of range");
  BfsScratch scratch;
  scratch.run(g, source, max_dist);
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()),
                        kUnreachable);
  for (int v : scratch.order()) {
    dist[static_cast<std::size_t>(v)] = scratch.dist(v);
  }
  return dist;
}

std::vector<int> ball(const Graph& g, int v, int r) {
  DC_REQUIRE(0 <= v && v < g.num_vertices(), "source out of range");
  BfsScratch scratch;
  scratch.run(g, v, r);
  std::vector<int> out(scratch.order().begin(), scratch.order().end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<int>> bfs_layers(const Graph& g, int v, int r) {
  DC_REQUIRE(0 <= v && v < g.num_vertices(), "source out of range");
  if (r < 0) return {};
  BfsScratch scratch;
  scratch.run(g, v, r);
  // r+1 slots even when the BFS exhausts earlier, matching the classic API.
  std::vector<std::vector<int>> layers(static_cast<std::size_t>(r) + 1);
  for (int t = 0; t < scratch.num_levels(); ++t) {
    const auto lv = scratch.level(t);
    auto& slot = layers[static_cast<std::size_t>(t)];
    slot.assign(lv.begin(), lv.end());
    std::sort(slot.begin(), slot.end());
  }
  return layers;
}

int eccentricity(const Graph& g, int v) {
  DC_REQUIRE(0 <= v && v < g.num_vertices(), "source out of range");
  BfsScratch scratch;
  scratch.run(g, v);
  return scratch.num_levels() - 1;
}

int graph_radius(const Graph& g) {
  const int n = g.num_vertices();
  DC_REQUIRE(n > 0, "radius of empty graph");
  BfsScratch scratch;
  int best = n;
  for (int v = 0; v < n; ++v) {
    scratch.run(g, v);
    best = std::min(best, scratch.num_levels() - 1);
  }
  return best;
}

}  // namespace deltacol
