#include "coloring/brooks_seq.h"

#include <algorithm>

#include "coloring/greedy.h"
#include "graph/components.h"
#include "graph/ops.h"
#include "graph/structure.h"
#include "graph/traversal.h"
#include "util/check.h"

namespace deltacol {

namespace {

// Greedy in decreasing-BFS-distance order from root. Every non-root vertex
// has its BFS parent uncolored when processed, so Delta colors suffice for
// it; the root must be handled by the caller's setup (degree < Delta, or two
// same-colored neighbors).
void color_toward_root(const Graph& g, int root, int delta, Coloring& c) {
  greedy_color_in_order(g, decreasing_bfs_order(g, root), delta, c);
}

// Case: some vertex has degree < Delta (graph connected).
Coloring color_with_deficient_root(const Graph& g, int root, int delta) {
  Coloring c(static_cast<std::size_t>(g.num_vertices()), kUncolored);
  color_toward_root(g, root, delta, c);
  return c;
}

// Case: Delta-regular and 2-connected, not complete, Delta >= 3. Find
// w, u1, u2 with u1, u2 non-adjacent neighbors of w and G - {u1, u2}
// connected; color u1 = u2, then greedily toward w.
Coloring color_regular_biconnected(const Graph& g, int delta) {
  const int n = g.num_vertices();
  for (int w = 0; w < n; ++w) {
    const auto nb = g.neighbors(w);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        const int u1 = nb[i], u2 = nb[j];
        if (g.has_edge(u1, u2)) continue;
        const std::vector<int> removed{u1, u2};
        const auto rest = remove_vertices(g, removed);
        if (!is_connected(rest.graph)) continue;
        Coloring c(static_cast<std::size_t>(n), kUncolored);
        c[u1] = 0;
        c[u2] = 0;
        // Order by decreasing distance from w measured in G - {u1, u2}:
        // every vertex then has an uncolored neighbor (its BFS parent in the
        // reduced graph) at coloring time; u1/u2 are pre-colored.
        const int w_local = rest.local_id(w);
        std::vector<int> order;
        for (int x : decreasing_bfs_order(rest.graph, w_local)) {
          order.push_back(rest.to_parent[static_cast<std::size_t>(x)]);
        }
        greedy_color_in_order(g, order, delta, c);
        return c;
      }
    }
  }
  DC_ENSURE(false,
            "no Brooks triple found: graph is not a Delta-regular 2-connected "
            "non-clique with Delta >= 3");
  return {};
}

Coloring brooks_connected(const Graph& g);

// Case: Delta-regular with a cut vertex. Each "v + component" piece sees v
// with degree < Delta; color pieces independently and rename so v agrees.
Coloring color_regular_with_cut_vertex(const Graph& g, int cut, int delta) {
  Coloring result(static_cast<std::size_t>(g.num_vertices()), kUncolored);
  const std::vector<int> removed{cut};
  const auto rest = remove_vertices(g, removed);
  const auto comps = connected_components(rest.graph).vertex_sets();
  for (const auto& comp : comps) {
    std::vector<int> piece_vertices{cut};
    for (int v : comp) piece_vertices.push_back(rest.to_parent[static_cast<std::size_t>(v)]);
    const auto piece = induced_subgraph(g, piece_vertices);
    const int cut_local = piece.local_id(cut);
    // In the piece, the cut vertex lost at least one neighbor, so its degree
    // is < delta: use it as the deficient root with the global palette.
    Coloring pc = color_with_deficient_root(piece.graph, cut_local, delta);
    // Rename colors inside the piece so the cut vertex gets color 0.
    const Color pivot = pc[cut_local];
    for (auto& x : pc) {
      if (x == pivot) x = 0;
      else if (x == 0) x = pivot;
    }
    for (int v = 0; v < piece.graph.num_vertices(); ++v) {
      result[piece.to_parent[static_cast<std::size_t>(v)]] = pc[v];
    }
  }
  return result;
}

Coloring brooks_connected(const Graph& g) {
  const int delta = g.max_degree();
  DC_REQUIRE(delta >= 3, "Brooks coloring here requires max degree >= 3");
  DC_REQUIRE(!is_clique(g), "cliques are not Delta-colorable");
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) < delta) return color_with_deficient_root(g, v, delta);
  }
  // Delta-regular. Split on 2-connectivity.
  const auto blocks = block_decomposition(g);
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (blocks.is_articulation[v]) {
      return color_regular_with_cut_vertex(g, v, delta);
    }
  }
  return color_regular_biconnected(g, delta);
}

}  // namespace

Coloring brooks_coloring(const Graph& g) {
  DC_REQUIRE(is_connected(g), "brooks_coloring expects a connected graph");
  Coloring c = brooks_connected(g);
  validate_delta_coloring(g, c, g.max_degree());
  return c;
}

Coloring brooks_coloring_components(const Graph& g, int delta) {
  DC_REQUIRE(delta >= g.max_degree(), "palette smaller than max degree");
  Coloring result(static_cast<std::size_t>(g.num_vertices()), kUncolored);
  for (const auto& comp : connected_components(g).vertex_sets()) {
    const auto sub = induced_subgraph(g, comp);
    Coloring sc;
    if (is_clique(sub.graph)) {
      DC_REQUIRE(sub.graph.num_vertices() <= delta,
                 "component is a clique larger than the palette");
      sc.resize(static_cast<std::size_t>(sub.graph.num_vertices()));
      for (int v = 0; v < sub.graph.num_vertices(); ++v) sc[v] = v;
    } else if (is_cycle(sub.graph) || is_path(sub.graph)) {
      DC_REQUIRE(delta >= 3 || !is_odd_cycle(sub.graph),
                 "odd cycle needs at least 3 colors");
      // Walk the path/cycle alternating 0/1; an odd cycle's last vertex
      // takes color 2.
      const int cn = sub.graph.num_vertices();
      sc.assign(static_cast<std::size_t>(cn), kUncolored);
      int start = 0;
      for (int v = 0; v < cn; ++v) {
        if (sub.graph.degree(v) == 1) start = v;  // path endpoint if any
      }
      int prev = -1, cur = start;
      for (int step = 0; step < cn; ++step) {
        sc[cur] = step % 2;
        int nxt = -1;
        for (int u : sub.graph.neighbors(cur)) {
          if (u != prev && sc[u] == kUncolored) nxt = u;
        }
        prev = cur;
        if (nxt == -1) break;
        cur = nxt;
      }
      // Odd cycle: the final vertex neighbors both color classes.
      if (is_odd_cycle(sub.graph)) sc[prev] = 2;
    } else if (sub.graph.max_degree() < delta) {
      // The global palette exceeds the local max degree: greedy toward any
      // root suffices.
      sc.assign(static_cast<std::size_t>(sub.graph.num_vertices()), kUncolored);
      greedy_color_in_order(sub.graph, decreasing_bfs_order(sub.graph, 0),
                            delta, sc);
    } else {
      sc = brooks_connected(sub.graph);
    }
    for (int v = 0; v < sub.graph.num_vertices(); ++v) {
      result[sub.to_parent[static_cast<std::size_t>(v)]] = sc[v];
    }
  }
  validate_delta_coloring(g, result, delta);
  return result;
}

}  // namespace deltacol
