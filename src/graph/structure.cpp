#include "graph/structure.h"

#include "graph/components.h"
#include "graph/ops.h"

namespace deltacol {

bool is_clique(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return false;
  for (int v = 0; v < n; ++v) {
    if (g.degree(v) != n - 1) return false;
  }
  return true;
}

bool is_cycle(const Graph& g) {
  const int n = g.num_vertices();
  if (n < 3) return false;
  for (int v = 0; v < n; ++v) {
    if (g.degree(v) != 2) return false;
  }
  return is_connected(g);
}

bool is_odd_cycle(const Graph& g) { return is_cycle(g) && g.num_vertices() % 2 == 1; }

bool is_path(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return false;
  if (n == 1) return true;
  int deg_one = 0;
  for (int v = 0; v < n; ++v) {
    const int d = g.degree(v);
    if (d > 2) return false;
    if (d == 1) ++deg_one;
    if (d == 0) return false;
  }
  return deg_one == 2 && is_connected(g);
}

bool is_nice(const Graph& g) {
  return is_connected(g) && !is_path(g) && !is_cycle(g) && !is_clique(g);
}

bool is_gallai_tree(const Graph& g) {
  const auto blocks = block_decomposition(g).blocks;
  for (const auto& block : blocks) {
    const auto sub = induced_subgraph(g, block);
    if (!is_clique(sub.graph) && !is_odd_cycle(sub.graph)) return false;
  }
  return true;
}

}  // namespace deltacol
