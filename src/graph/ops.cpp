#include "graph/ops.h"

#include <algorithm>

#include "graph/frontier_bfs.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

int Subgraph::local_id(int parent) const {
  const auto it = std::lower_bound(to_parent.begin(), to_parent.end(), parent);
  if (it == to_parent.end() || *it != parent) return -1;
  return static_cast<int>(it - to_parent.begin());
}

Subgraph induced_subgraph(const Graph& g, std::span<const int> vertices) {
  const int n = g.num_vertices();
  Subgraph out;
  out.to_parent.assign(vertices.begin(), vertices.end());
  std::sort(out.to_parent.begin(), out.to_parent.end());
  out.to_parent.erase(
      std::unique(out.to_parent.begin(), out.to_parent.end()),
      out.to_parent.end());
  const int k = static_cast<int>(out.to_parent.size());
  DC_REQUIRE(k == 0 || (out.to_parent.front() >= 0 && out.to_parent.back() < n),
             "subgraph vertex out of range");
  if (k == n) {  // every vertex: ids coincide
    out.graph = g;
    return out;
  }
  // Local ids ascend with parent ids, so each edge {i, j}, i < j, is taken
  // from i's scan of its larger neighbors only.
  std::vector<Edge> edges;
  auto collect = [&](auto&& local_of) {
    for (int i = 0; i < k; ++i) {
      const int p = out.to_parent[static_cast<std::size_t>(i)];
      for (int w : g.neighbors(p)) {
        if (w <= p) continue;
        const int j = local_of(w);
        if (j != -1) edges.emplace_back(i, j);
      }
    }
  };
  if (static_cast<std::int64_t>(k) * kDenseSubgraphRatio < n) {
    collect([&](int w) { return out.local_id(w); });
  } else {
    std::vector<int> local(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < k; ++i) {
      const int p = out.to_parent[static_cast<std::size_t>(i)];
      local[static_cast<std::size_t>(p)] = i;
    }
    collect([&](int w) { return local[static_cast<std::size_t>(w)]; });
  }
  out.graph = Graph::from_edges(k, edges);
  return out;
}

Subgraph remove_vertices(const Graph& g, std::span<const int> removed) {
  std::vector<bool> gone(static_cast<std::size_t>(g.num_vertices()), false);
  for (int v : removed) {
    DC_REQUIRE(0 <= v && v < g.num_vertices(), "removed vertex out of range");
    gone[static_cast<std::size_t>(v)] = true;
  }
  std::vector<int> keep;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!gone[static_cast<std::size_t>(v)]) keep.push_back(v);
  }
  return induced_subgraph(g, keep);
}

Graph power_graph(const Graph& g, std::span<const int> subset, int k,
                  ThreadPool* pool) {
  DC_REQUIRE(k >= 1, "power graph exponent must be >= 1");
  std::vector<int> local_id(static_cast<std::size_t>(g.num_vertices()), -1);
  const int m = static_cast<int>(subset.size());
  for (int i = 0; i < m; ++i) {
    const int v = subset[static_cast<std::size_t>(i)];
    DC_REQUIRE(0 <= v && v < g.num_vertices(), "subset vertex out of range");
    local_id[static_cast<std::size_t>(v)] = i;
  }
  // Each chunk reuses one scratch and collects edges into its own fragment,
  // concatenated in chunk order (from_edges normalizes, so any chunking
  // yields the same graph).
  // Chunk cap = one per executor: each chunk holds O(n) BFS scratch.
  const int max_chunks = pool != nullptr ? pool->num_threads() : 1;
  const int num_chunks =
      pool != nullptr ? pool->num_range_chunks(m, max_chunks) : 1;
  std::vector<std::vector<Edge>> chunk_edges(
      static_cast<std::size_t>(num_chunks));
  pooled_ranges(
      pool, 0, m,
      [&](int chunk, int lo, int hi) {
        BfsScratch scratch;
        auto& edges = chunk_edges[static_cast<std::size_t>(chunk)];
        for (int i = lo; i < hi; ++i) {
          scratch.run(g, subset[static_cast<std::size_t>(i)], k);
          for (int u : scratch.order()) {
            const int j = local_id[static_cast<std::size_t>(u)];
            if (j > i) edges.emplace_back(i, j);
          }
        }
      },
      max_chunks);
  std::vector<Edge> edges;
  std::size_t total = 0;
  for (const auto& ce : chunk_edges) total += ce.size();
  edges.reserve(total);
  for (const auto& ce : chunk_edges) {
    edges.insert(edges.end(), ce.begin(), ce.end());
  }
  return Graph::from_edges(m, edges);
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  std::vector<Edge> edges = a.edge_list();
  const int shift = a.num_vertices();
  for (const auto& [u, v] : b.edge_list()) {
    edges.emplace_back(u + shift, v + shift);
  }
  return Graph::from_edges(a.num_vertices() + b.num_vertices(), edges);
}

}  // namespace deltacol
