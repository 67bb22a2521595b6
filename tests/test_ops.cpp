// Induced subgraphs, vertex removal, power graphs, disjoint unions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Ops, InducedSubgraphMapsBothWays) {
  const Graph g = cycle_graph(6);
  const auto sub = induced_subgraph(g, std::vector<int>{1, 2, 3, 5});
  EXPECT_EQ(sub.graph.num_vertices(), 4);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 1-2, 2-3 survive; 5 is isolated
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sub.local_id(sub.to_parent[i]), i);
  }
  EXPECT_EQ(sub.local_id(0), -1);
}

TEST(Ops, InducedSubgraphDedupes) {
  const Graph g = path_graph(4);
  const auto sub = induced_subgraph(g, std::vector<int>{2, 2, 1});
  EXPECT_EQ(sub.graph.num_vertices(), 2);
  EXPECT_EQ(sub.graph.num_edges(), 1);
}

// induced_subgraph builds a set small next to g by binary search, a larger
// one through a dense id map, and the whole vertex set as a copy of g. On
// each side local_id inverts to_parent, misses non-members, and the edges
// are exactly g's edges between members.
TEST(Ops, LocalIdOnEverySubgraphSide) {
  Rng rng(5);
  const Graph g = random_regular(20000, 6, rng);
  const int n = g.num_vertices();
  std::vector<int> small{15000, 7, 42, 43, 999};
  for (int u : g.neighbors(42)) small.push_back(u);
  std::vector<int> large;
  for (int v = n - 1; v >= 0; v -= 2) large.push_back(v);
  std::vector<int> whole(static_cast<std::size_t>(n));
  std::iota(whole.rbegin(), whole.rend(), 0);
  for (const auto* set : {&small, &large, &whole}) {
    const auto sub = induced_subgraph(g, *set);
    std::vector<char> member(static_cast<std::size_t>(n), 0);
    for (int v : *set) member[static_cast<std::size_t>(v)] = 1;
    const int k = sub.graph.num_vertices();
    ASSERT_EQ(k, static_cast<int>(sub.to_parent.size()));
    EXPECT_TRUE(std::is_sorted(sub.to_parent.begin(), sub.to_parent.end()));
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(sub.local_id(sub.to_parent[static_cast<std::size_t>(i)]), i);
    }
    std::int64_t inside = 0;
    for (int v = 0; v < n; ++v) {
      if (!member[static_cast<std::size_t>(v)]) {
        EXPECT_EQ(sub.local_id(v), -1) << "vertex " << v << ", |S| = " << k;
        continue;
      }
      for (int w : g.neighbors(v)) {
        inside += w > v && member[static_cast<std::size_t>(w)];
      }
    }
    EXPECT_EQ(sub.local_id(-1), -1);
    EXPECT_EQ(sub.local_id(n), -1);
    EXPECT_EQ(sub.graph.num_edges(), inside) << "|S| = " << k;
    for (const auto& [a, b] : sub.graph.edge_list()) {
      EXPECT_TRUE(g.has_edge(sub.to_parent[static_cast<std::size_t>(a)],
                             sub.to_parent[static_cast<std::size_t>(b)]));
    }
  }
  const auto all = induced_subgraph(g, whole);
  EXPECT_EQ(all.graph.edge_list(), g.edge_list());
  EXPECT_EQ(all.graph.max_degree(), g.max_degree());
  EXPECT_EQ(all.graph.min_degree(), g.min_degree());
}

TEST(Ops, RemoveVertices) {
  const Graph g = clique_graph(5);
  const auto rest = remove_vertices(g, std::vector<int>{0, 3});
  EXPECT_EQ(rest.graph.num_vertices(), 3);
  EXPECT_EQ(rest.graph.num_edges(), 3);  // K3 remains
}

TEST(Ops, PowerGraphMatchesBfsDistances) {
  Rng rng(12);
  const Graph g = random_graph_max_degree(40, 4, 1.4, rng);
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  for (int k : {1, 2, 3}) {
    const Graph p = power_graph(g, all, k);
    for (int v = 0; v < g.num_vertices(); ++v) {
      const auto d = bfs_distances(g, v);
      for (int u = 0; u < g.num_vertices(); ++u) {
        if (u == v) continue;
        const bool expect = d[u] != kUnreachable && d[u] <= k;
        EXPECT_EQ(p.has_edge(v, u), expect)
            << "k=" << k << " pair (" << v << "," << u << ")";
      }
    }
  }
}

TEST(Ops, PowerGraphOfPathIsBandGraph) {
  const Graph p2 =
      power_graph(path_graph(6), std::vector<int>{0, 1, 2, 3, 4, 5}, 2);
  EXPECT_TRUE(p2.has_edge(0, 2));
  EXPECT_FALSE(p2.has_edge(0, 3));
  EXPECT_EQ(p2.num_edges(), 5 + 4);
}

TEST(Ops, DisjointUnionShiftsIds) {
  const Graph g = disjoint_union(path_graph(3), cycle_graph(3));
  EXPECT_EQ(g.num_vertices(), 6);
  EXPECT_EQ(g.num_edges(), 2 + 3);
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
}

}  // namespace
}  // namespace deltacol
