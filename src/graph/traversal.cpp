#include "graph/traversal.h"

#include <algorithm>

#include "graph/frontier_bfs.h"
#include "runtime/thread_pool.h"
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

MultiSourceBfs multi_source_bfs(const Graph& g, const std::vector<int>& sources,
                                int max_dist) {
  BfsScratch scratch;
  scratch.run_multi_labeled(g, sources, max_dist);
  MultiSourceBfs out;
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  out.dist.assign(n, kUnreachable);
  out.source.assign(n, -1);
  for (int v : scratch.order()) {
    out.dist[static_cast<std::size_t>(v)] = scratch.dist(v);
    out.source[static_cast<std::size_t>(v)] = scratch.source_of(v);
  }
  return out;
}

std::vector<int> ball(const Graph& g, int v, int r) {
  DC_REQUIRE(0 <= v && v < g.num_vertices(), "source out of range");
  BfsScratch scratch;
  scratch.run(g, v, r);
  std::vector<int> out(scratch.order().begin(), scratch.order().end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> ball_filtered(const Graph& g, int v, int r,
                               const std::function<bool(int)>& allowed) {
  DC_REQUIRE(0 <= v && v < g.num_vertices(), "source out of range");
  BfsScratch scratch;
  scratch.run_filtered(g, v, r, [&](int u) { return allowed(u); });
  return {scratch.order().begin(), scratch.order().end()};
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

int graph_radius(const Graph& g, ThreadPool* pool) {
  const int n = g.num_vertices();
  DC_REQUIRE(n > 0, "radius of empty graph");
  // Chunk cap = one per executor: each chunk holds O(n) BFS scratch.
  const int max_chunks = pool != nullptr ? pool->num_threads() : 1;
  const int num_chunks =
      pool != nullptr ? pool->num_range_chunks(n, max_chunks) : 1;
  std::vector<int> chunk_min(static_cast<std::size_t>(num_chunks), n);
  pooled_ranges(
      pool, 0, n,
      [&](int chunk, int lo, int hi) {
        BfsScratch scratch;
        int best = n;
        for (int v = lo; v < hi; ++v) {
          scratch.run(g, v);
          best = std::min(best, scratch.num_levels() - 1);
        }
        chunk_min[static_cast<std::size_t>(chunk)] = best;
      },
      max_chunks);
  return *std::min_element(chunk_min.begin(), chunk_min.end());
}

}  // namespace deltacol
