// Unit and property tests for the Graph container and the generator zoo.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/components.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/structure.h"
#include "util/check.h"

namespace deltacol {
namespace {

TEST(Graph, FromEdgesDedupesAndSorts) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {1, 2}, {0, 1}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  const auto nb = g.neighbors(1);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

// from_edges against a reference build that keeps each row in a std::set,
// on shuffled edge lists with repeats in both orientations; the last
// quarter of the ids never gets an edge. Trials 0 and 1 are n = 0 and 1.
TEST(Graph, FromEdgesMatchesSetReference) {
  Rng rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = trial < 2 ? trial : 2 + static_cast<int>(rng.next_below(80));
    const int touched = n - n / 4;
    std::vector<Edge> edges;
    std::vector<std::set<int>> rows(static_cast<std::size_t>(n));
    const int m = touched < 2 ? 0 : static_cast<int>(rng.next_below(3 * n));
    for (int i = 0; i < m; ++i) {
      const int u = rng.next_int(0, touched - 1);
      const int v = rng.next_int(0, touched - 1);
      if (u == v) continue;
      edges.emplace_back(u, v);
      if (rng.next_below(3) == 0) edges.emplace_back(v, u);
      if (rng.next_below(5) == 0) edges.emplace_back(u, v);
      rows[static_cast<std::size_t>(u)].insert(v);
      rows[static_cast<std::size_t>(v)].insert(u);
    }
    rng.shuffle(edges);
    const Graph g = Graph::from_edges(n, edges);

    std::vector<int> expect_offsets{0}, expect_adj, offsets{0}, adj;
    int max_degree = 0;
    int min_degree = n;
    for (int v = 0; v < n; ++v) {
      const auto& row = rows[static_cast<std::size_t>(v)];
      expect_adj.insert(expect_adj.end(), row.begin(), row.end());
      expect_offsets.push_back(static_cast<int>(expect_adj.size()));
      max_degree = std::max(max_degree, static_cast<int>(row.size()));
      min_degree = std::min(min_degree, static_cast<int>(row.size()));
      const auto nb = g.neighbors(v);
      adj.insert(adj.end(), nb.begin(), nb.end());
      offsets.push_back(static_cast<int>(adj.size()));
    }
    ASSERT_EQ(g.num_vertices(), n) << "trial " << trial;
    EXPECT_EQ(offsets, expect_offsets) << "trial " << trial;
    EXPECT_EQ(adj, expect_adj) << "trial " << trial;
    EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(adj.size()) / 2);
    EXPECT_EQ(g.max_degree(), max_degree) << "trial " << trial;
    EXPECT_EQ(g.min_degree(), n == 0 ? 0 : min_degree) << "trial " << trial;
  }
}

TEST(Graph, RejectsSelfLoopsAndOutOfRange) {
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{0, 0}}),
               ContractViolation);
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{0, 2}}),
               ContractViolation);
}

TEST(Graph, EdgeListRoundTrips) {
  Rng rng(3);
  const Graph g = random_regular(30, 4, rng);
  const Graph h = Graph::from_edges(30, g.edge_list());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (int v = 0; v < 30; ++v) EXPECT_EQ(h.degree(v), g.degree(v));
}

TEST(Graph, MinMaxDegree) {
  const Graph g = star_graph(5);
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_EQ(g.min_degree(), 1);
}

TEST(Generators, PathCycleClique) {
  EXPECT_TRUE(is_path(path_graph(5)));
  EXPECT_TRUE(is_cycle(cycle_graph(6)));
  EXPECT_TRUE(is_odd_cycle(cycle_graph(7)));
  EXPECT_FALSE(is_odd_cycle(cycle_graph(8)));
  EXPECT_TRUE(is_clique(clique_graph(4)));
  EXPECT_EQ(clique_graph(5).num_edges(), 10);
}

TEST(Generators, CompleteBipartiteAndStar) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(star_graph(7).num_edges(), 7);
}

TEST(Generators, GridAndTorus) {
  const Graph grid = grid_graph(4, 5, false);
  EXPECT_EQ(grid.num_vertices(), 20);
  EXPECT_EQ(grid.num_edges(), 4 * 4 + 3 * 5);  // horizontal + vertical
  EXPECT_EQ(grid.max_degree(), 4);
  const Graph torus = grid_graph(4, 5, true);
  for (int v = 0; v < torus.num_vertices(); ++v) EXPECT_EQ(torus.degree(v), 4);
  EXPECT_TRUE(is_connected(torus));
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube_graph(4);
  EXPECT_EQ(g.num_vertices(), 16);
  for (int v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Circulant) {
  const Graph g = circulant_graph(10, {1, 2});
  for (int v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Petersen) {
  const Graph g = petersen_graph();
  EXPECT_EQ(g.num_vertices(), 10);
  for (int v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 3);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_nice(g));
}

TEST(Generators, KaryTree) {
  const Graph g = complete_kary_tree(3, 3);
  EXPECT_EQ(g.num_vertices(), 1 + 3 + 9 + 27);
  EXPECT_EQ(g.max_degree(), 4);  // internal: 3 children + parent
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), g.num_vertices() - 1);
}

TEST(Generators, ThetaGraphIsDccShape) {
  const Graph g = theta_graph(2, 3, 4);
  EXPECT_EQ(g.num_vertices(), 2 + 2 + 3 + 4);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(is_gallai_tree(g));
}

TEST(Generators, CliqueRing) {
  const Graph g = clique_ring(4, 4);
  EXPECT_EQ(g.num_vertices(), 4 * 3);
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(is_gallai_tree(g));  // a big even structure of cliques
}

TEST(Generators, TriangleCactus) {
  const Graph g = triangle_cactus(100);
  EXPECT_GE(g.num_vertices(), 100);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_gallai_tree(g));
  EXPECT_EQ(g.max_degree(), 4);
  // Interior vertices have degree 4, fringe degree 2; no other degrees.
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(g.degree(v) == 2 || g.degree(v) == 4) << v;
  }
  EXPECT_EQ(g.num_edges() % 3, 0);  // a disjoint union of triangle blocks
}

class RandomRegularTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RandomRegularTest, ExactlyRegularAndSimple) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + d));
  const Graph g = random_regular(n, d, rng);
  EXPECT_EQ(g.num_vertices(), n);
  for (int v = 0; v < n; ++v) ASSERT_EQ(g.degree(v), d) << "vertex " << v;
  EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(n) * d / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomRegularTest,
    ::testing::Values(std::pair{10, 3}, std::pair{50, 4}, std::pair{100, 5},
                      std::pair{64, 6}, std::pair{200, 3}, std::pair{40, 8},
                      std::pair{500, 4}));

TEST(Generators, RandomRegularInfeasible) {
  Rng rng(1);
  EXPECT_THROW(random_regular(5, 3, rng), ContractViolation);  // odd n*d
  EXPECT_THROW(random_regular(4, 4, rng), ContractViolation);  // d >= n
  EXPECT_TRUE(regular_graph_feasible(6, 3));
  EXPECT_FALSE(regular_graph_feasible(5, 3));
}

TEST(Generators, RandomTreeRespectsCap) {
  Rng rng(5);
  const Graph g = random_tree(200, 4, rng);
  EXPECT_EQ(g.num_edges(), 199);
  EXPECT_LE(g.max_degree(), 4);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomGraphMaxDegree) {
  Rng rng(6);
  const Graph g = random_graph_max_degree(300, 6, 1.8, rng);
  EXPECT_LE(g.max_degree(), 6);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.num_edges(), 299);
}

class GallaiTreeGenTest : public ::testing::TestWithParam<int> {};

TEST_P(GallaiTreeGenTest, GeneratedGraphIsGallaiTree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = random_gallai_tree(60, 5, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(g.max_degree(), 5);
  EXPECT_TRUE(is_gallai_tree(g));
  EXPECT_GE(g.num_vertices(), 60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GallaiTreeGenTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace deltacol
