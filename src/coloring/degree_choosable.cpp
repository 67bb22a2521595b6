#include "coloring/degree_choosable.h"

#include <algorithm>

#include "coloring/brute.h"
#include "coloring/greedy.h"
#include "graph/components.h"
#include "graph/ops.h"
#include "util/check.h"

namespace deltacol {

namespace {

// Greedy from the lists in the given order; returns nullopt when a vertex
// has no feasible list color.
std::optional<Coloring> list_greedy(const Graph& g,
                                    const ListAssignment& lists,
                                    const std::vector<int>& order,
                                    Coloring c) {
  for (int v : order) {
    if (c[v] != kUncolored) continue;
    Color chosen = kUncolored;
    for (Color x : lists[static_cast<std::size_t>(v)]) {
      bool ok = true;
      for (int u : g.neighbors(v)) {
        if (c[u] == x) {
          ok = false;
          break;
        }
      }
      if (ok) {
        chosen = x;
        break;
      }
    }
    if (chosen == kUncolored) return std::nullopt;
    c[v] = chosen;
  }
  return c;
}

std::optional<Color> common_color(const std::vector<Color>& a,
                                  const std::vector<Color>& b) {
  for (Color x : a) {
    if (std::binary_search(b.begin(), b.end(), x)) return x;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Coloring> degree_choosable_coloring(const Graph& g,
                                                  const ListAssignment& lists) {
  const int n = g.num_vertices();
  DC_REQUIRE(static_cast<int>(lists.size()) == n, "list size mismatch");
  DC_REQUIRE(is_connected(g), "degree_choosable_coloring expects connectivity");
  for (int v = 0; v < n; ++v) {
    DC_REQUIRE(static_cast<int>(lists[static_cast<std::size_t>(v)].size()) >=
                   g.degree(v),
               "lists must have size >= degree");
  }
  const Coloring empty(static_cast<std::size_t>(n), kUncolored);

  // (1) Slack vertex: color everything toward it; the slack absorbs the one
  // missing "uncolored neighbor" guarantee at the root.
  for (int v = 0; v < n; ++v) {
    if (static_cast<int>(lists[static_cast<std::size_t>(v)].size()) >
        g.degree(v)) {
      auto c = list_greedy(g, lists, decreasing_bfs_order(g, v), empty);
      if (c) return c;
    }
  }

  // (2) Brooks trick on tight lists.
  for (int w = 0; w < n; ++w) {
    const auto nb = g.neighbors(w);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        const int u1 = nb[i], u2 = nb[j];
        if (g.has_edge(u1, u2)) continue;
        const auto shared = common_color(lists[static_cast<std::size_t>(u1)],
                                         lists[static_cast<std::size_t>(u2)]);
        if (!shared) continue;
        const std::vector<int> removed{u1, u2};
        const auto rest = remove_vertices(g, removed);
        if (!is_connected(rest.graph)) continue;
        Coloring c = empty;
        c[u1] = *shared;
        c[u2] = *shared;
        const int w_local = rest.local_id(w);
        std::vector<int> order;
        for (int x : decreasing_bfs_order(rest.graph, w_local)) {
          order.push_back(rest.to_parent[static_cast<std::size_t>(x)]);
        }
        auto done = list_greedy(g, lists, order, std::move(c));
        if (done) return done;
      }
    }
  }

  // (3) Exact search (small blocks only — Gallai trees with tight lists
  // correctly return nullopt here).
  return brute_force_list_coloring(g, lists);
}

bool color_from_free_colors(const Graph& g, std::span<const int> vertices,
                            int palette, Coloring& c) {
  const auto sub = induced_subgraph(g, vertices);
  const int k = sub.graph.num_vertices();
  ListAssignment lists(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    lists[static_cast<std::size_t>(i)] =
        free_colors(g, c, sub.to_parent[static_cast<std::size_t>(i)], palette);
  }
  const auto colored = degree_choosable_coloring(sub.graph, lists);
  if (!colored) return false;
  for (int i = 0; i < k; ++i) {
    c[static_cast<std::size_t>(sub.to_parent[static_cast<std::size_t>(i)])] =
        (*colored)[static_cast<std::size_t>(i)];
  }
  return true;
}

}  // namespace deltacol
