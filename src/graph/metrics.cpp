#include "graph/metrics.h"

#include <algorithm>
#include <queue>

#include "util/check.h"

namespace deltacol {

int girth(const Graph& g) {
  // BFS from every vertex; the first non-tree edge seen closes a cycle of
  // length dist(u) + dist(w) + 1 (same level) or dist(u) + dist(w) + 1
  // (cross level); taking the min over all roots is exact for girth.
  int best = -1;
  const int n = g.num_vertices();
  std::vector<int> dist(static_cast<std::size_t>(n));
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int root = 0; root < n; ++root) {
    std::fill(dist.begin(), dist.end(), -1);
    std::queue<int> q;
    dist[static_cast<std::size_t>(root)] = 0;
    parent[static_cast<std::size_t>(root)] = -1;
    q.push(root);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int w : g.neighbors(u)) {
        if (w == parent[static_cast<std::size_t>(u)]) continue;
        if (dist[static_cast<std::size_t>(w)] == -1) {
          dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
          parent[static_cast<std::size_t>(w)] = u;
          q.push(w);
        } else {
          const int cycle = dist[static_cast<std::size_t>(u)] +
                            dist[static_cast<std::size_t>(w)] + 1;
          if (best == -1 || cycle < best) best = cycle;
        }
      }
    }
  }
  return best;
}

DegeneracyResult degeneracy(const Graph& g) {
  const int n = g.num_vertices();
  DegeneracyResult res;
  std::vector<int> deg(static_cast<std::size_t>(n));
  const int maxd = g.max_degree();
  std::vector<std::vector<int>> buckets(static_cast<std::size_t>(maxd) + 1);
  for (int v = 0; v < n; ++v) {
    deg[static_cast<std::size_t>(v)] = g.degree(v);
    buckets[static_cast<std::size_t>(g.degree(v))].push_back(v);
  }
  std::vector<bool> removed(static_cast<std::size_t>(n), false);
  int cursor = 0;
  for (int step = 0; step < n; ++step) {
    // Find the lowest non-empty bucket (degrees only drop by one per
    // removal, so rewinding the cursor by one suffices).
    cursor = std::max(0, cursor - 1);
    while (cursor <= maxd) {
      auto& b = buckets[static_cast<std::size_t>(cursor)];
      while (!b.empty() &&
             (removed[static_cast<std::size_t>(b.back())] ||
              deg[static_cast<std::size_t>(b.back())] != cursor)) {
        b.pop_back();
      }
      if (!b.empty()) break;
      ++cursor;
    }
    DC_ENSURE(cursor <= maxd, "degeneracy peeling ran out of buckets");
    const int v = buckets[static_cast<std::size_t>(cursor)].back();
    buckets[static_cast<std::size_t>(cursor)].pop_back();
    removed[static_cast<std::size_t>(v)] = true;
    res.order.push_back(v);
    res.degeneracy = std::max(res.degeneracy, cursor);
    for (int u : g.neighbors(v)) {
      if (removed[static_cast<std::size_t>(u)]) continue;
      const int d = --deg[static_cast<std::size_t>(u)];
      buckets[static_cast<std::size_t>(d)].push_back(u);
    }
  }
  return res;
}

double cross_edge_fraction(const Graph& g, const VertexPartition& part) {
  DC_REQUIRE(part.num_vertices() == g.num_vertices(),
             "partition does not span the graph");
  if (g.num_edges() == 0 || part.num_shards() <= 1) return 0.0;
  std::int64_t cross = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int sv = part.shard_of(v);
    for (int u : g.neighbors(v)) {
      if (v < u && part.shard_of(u) != sv) ++cross;
    }
  }
  return static_cast<double>(cross) / static_cast<double>(g.num_edges());
}

}  // namespace deltacol
