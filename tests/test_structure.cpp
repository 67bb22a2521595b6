// Predicates of Section 2: cliques, cycles, paths, nice graphs, Gallai trees.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/structure.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Structure, CliquePredicate) {
  EXPECT_TRUE(is_clique(clique_graph(1)));
  EXPECT_TRUE(is_clique(clique_graph(2)));
  EXPECT_TRUE(is_clique(clique_graph(6)));
  EXPECT_FALSE(is_clique(cycle_graph(4)));
  EXPECT_TRUE(is_clique(cycle_graph(3)));  // triangle is K3
  EXPECT_FALSE(is_clique(path_graph(3)));
}

TEST(Structure, CyclePredicates) {
  EXPECT_TRUE(is_cycle(cycle_graph(5)));
  EXPECT_TRUE(is_odd_cycle(cycle_graph(5)));
  EXPECT_FALSE(is_odd_cycle(cycle_graph(6)));
  EXPECT_FALSE(is_cycle(path_graph(5)));
  EXPECT_FALSE(is_cycle(clique_graph(4)));
  // Two disjoint cycles: every degree 2 but disconnected.
  EXPECT_FALSE(is_cycle(disjoint_union(cycle_graph(3), cycle_graph(4))));
}

TEST(Structure, PathPredicate) {
  EXPECT_TRUE(is_path(path_graph(1)));
  EXPECT_TRUE(is_path(path_graph(5)));
  EXPECT_FALSE(is_path(cycle_graph(5)));
  EXPECT_FALSE(is_path(star_graph(3)));
  EXPECT_FALSE(is_path(disjoint_union(path_graph(2), path_graph(2))));
}

TEST(Structure, NiceGraphs) {
  EXPECT_FALSE(is_nice(path_graph(4)));
  EXPECT_FALSE(is_nice(cycle_graph(7)));
  EXPECT_FALSE(is_nice(clique_graph(4)));
  EXPECT_TRUE(is_nice(petersen_graph()));
  EXPECT_TRUE(is_nice(star_graph(3)));
  EXPECT_TRUE(is_nice(grid_graph(3, 3, false)));
  EXPECT_TRUE(is_nice(complete_bipartite(2, 3)));
}

TEST(Structure, GallaiTreeExamples) {
  // Trees, cliques and odd cycles are Gallai trees.
  EXPECT_TRUE(is_gallai_tree(path_graph(6)));
  EXPECT_TRUE(is_gallai_tree(star_graph(5)));
  EXPECT_TRUE(is_gallai_tree(clique_graph(5)));
  EXPECT_TRUE(is_gallai_tree(cycle_graph(7)));
  Rng rng(4);
  EXPECT_TRUE(is_gallai_tree(random_tree(100, 4, rng)));

  // Even cycles, thetas, complete bipartite graphs, grids are not.
  EXPECT_FALSE(is_gallai_tree(cycle_graph(6)));
  EXPECT_FALSE(is_gallai_tree(theta_graph(1, 1, 1)));  // K_{2,3}
  EXPECT_FALSE(is_gallai_tree(complete_bipartite(2, 2)));
  EXPECT_FALSE(is_gallai_tree(grid_graph(2, 3, false)));
  EXPECT_FALSE(is_gallai_tree(petersen_graph()));
  EXPECT_FALSE(is_gallai_tree(hypercube_graph(3)));
}

TEST(Structure, GallaiTreeComposite) {
  // Triangle sharing a vertex with a 5-cycle: both blocks odd => Gallai.
  EXPECT_TRUE(is_gallai_tree(Graph::from_edges(
      7, {{0, 1}, {1, 2}, {0, 2},  // triangle 0-1-2
          {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 2}})));  // 5-cycle 2-3-4-5-6

  // Same but with a 4-cycle: not Gallai.
  EXPECT_FALSE(is_gallai_tree(Graph::from_edges(
      6, {{0, 1}, {1, 2}, {0, 2},  // triangle 0-1-2
          {2, 3}, {3, 4}, {4, 5}, {5, 2}})));  // 4-cycle 2-3-4-5
}

TEST(Structure, InducesClique) {
  const Graph g = clique_ring(3, 4);
  // First clique: shared vertex (id n-1=8) plus fresh 0,1,2.
  EXPECT_TRUE(induces_clique(g, std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(induces_clique(g, std::vector<int>{8, 0, 1, 2}));
  EXPECT_FALSE(induces_clique(g, std::vector<int>{0, 1, 3}));
}

}  // namespace
}  // namespace deltacol
