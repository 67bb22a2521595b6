// Induced subgraphs, vertex removal, power graphs, disjoint unions.
#include <gtest/gtest.h>

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
    EXPECT_EQ(sub.from_parent[sub.to_parent[i]], i);
  }
  EXPECT_EQ(sub.from_parent[0], -1);
}

TEST(Ops, InducedSubgraphDedupes) {
  const Graph g = path_graph(4);
  const auto sub = induced_subgraph(g, std::vector<int>{2, 2, 1});
  EXPECT_EQ(sub.graph.num_vertices(), 2);
  EXPECT_EQ(sub.graph.num_edges(), 1);
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
