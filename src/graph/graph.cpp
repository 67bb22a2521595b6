#include "graph/graph.h"

#include <algorithm>

#include "util/check.h"

namespace deltacol {

Graph Graph::from_edges(int n, std::span<const Edge> edges) {
  DC_REQUIRE(n >= 0, "vertex count must be non-negative");
  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    DC_REQUIRE(0 <= u && u < n && 0 <= v && v < n, "edge endpoint out of range");
    DC_REQUIRE(u != v, "self-loops are not allowed in simple graphs");
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (int v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  // Counting sort: scatter both orientations into their rows, then sort
  // each row and drop its duplicates, compacting the rows leftwards.
  g.adj_.resize(edges.size() * 2);
  std::vector<int> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    g.adj_[static_cast<std::size_t>(cursor[u]++)] = v;
    g.adj_[static_cast<std::size_t>(cursor[v]++)] = u;
  }
  auto first = g.adj_.begin();
  auto out = first;
  for (int v = 0; v < n; ++v) {
    const auto last = g.adj_.begin() + g.offsets_[v + 1];
    std::sort(first, last);
    const auto row_end = std::unique(first, last);
    out = out == first ? row_end : std::copy(first, row_end, out);
    g.offsets_[v + 1] = static_cast<int>(out - g.adj_.begin());
    first = last;
  }
  g.adj_.erase(out, g.adj_.end());
  g.adj_.shrink_to_fit();
  g.max_degree_ = 0;
  g.min_degree_ = n > 0 ? n : 0;
  for (int v = 0; v < n; ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(v));
    g.min_degree_ = std::min(g.min_degree_, g.degree(v));
  }
  if (n == 0) g.min_degree_ = 0;
  return g;
}

bool Graph::has_edge(int u, int v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(num_edges()));
  for (int u = 0; u < num_vertices(); ++u) {
    for (int v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

}  // namespace deltacol
