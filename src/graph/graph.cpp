#include "graph/graph.h"

#include <algorithm>

namespace deltacol {

void sort_unique_rows(Rows& rows) {
  auto first = rows.targets.begin();
  auto out = first;
  for (std::size_t r = 1; r < rows.offsets.size(); ++r) {
    const auto last = rows.targets.begin() + rows.offsets[r];
    std::sort(first, last);
    const auto row_end = std::unique(first, last);
    out = out == first ? row_end : std::copy(first, row_end, out);
    rows.offsets[r] = static_cast<int>(out - rows.targets.begin());
    first = last;
  }
  rows.targets.erase(out, rows.targets.end());
  rows.targets.shrink_to_fit();
}

Graph Graph::from_edges(int n, std::span<const Edge> edges) {
  DC_REQUIRE(n >= 0, "vertex count must be non-negative");
  Graph g;
  // Both orientations of every edge; the count pass meets a bad edge first.
  g.rows_ = bucket_rows(n, 2 * edges.size(), [&](const auto& emit) {
    for (const auto& [u, v] : edges) {
      DC_REQUIRE(0 <= u && u < n && 0 <= v && v < n,
                 "edge endpoint out of range");
      DC_REQUIRE(u != v, "self-loops are not allowed in simple graphs");
      emit(u, v);
      emit(v, u);
    }
  });
  sort_unique_rows(g.rows_);
  g.min_degree_ = n;
  for (int v = 0; v < n; ++v) {
    g.max_degree_ = std::max(g.max_degree_, g.degree(v));
    g.min_degree_ = std::min(g.min_degree_, g.degree(v));
  }
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
