// The sequential constructive Brooks' theorem — ground-truth oracle.
#include <gtest/gtest.h>

#include "coloring/brooks_seq.h"
#include "graph/generators.h"
#include "graph/components.h"
#include "graph/ops.h"
#include "util/check.h"

namespace deltacol {
namespace {

TEST(BrooksSeq, Petersen) {
  const Graph g = petersen_graph();
  const Coloring c = brooks_coloring(g);
  EXPECT_TRUE(is_proper_with_palette(g, c, 3));
}

TEST(BrooksSeq, HypercubesAreRegularBiconnected) {
  for (int dim : {3, 4, 5}) {
    const Graph g = hypercube_graph(dim);
    const Coloring c = brooks_coloring(g);
    EXPECT_TRUE(is_proper_with_palette(g, c, dim));
  }
}

TEST(BrooksSeq, Torus) {
  const Graph g = grid_graph(6, 8, true);
  const Coloring c = brooks_coloring(g);
  EXPECT_TRUE(is_proper_with_palette(g, c, 4));
}

TEST(BrooksSeq, GraphWithDeficientVertex) {
  const Graph g = grid_graph(5, 5, false);  // corners have degree 2 < 4
  const Coloring c = brooks_coloring(g);
  EXPECT_TRUE(is_proper_with_palette(g, c, 4));
}

// 3-regular graph with a bridge: two K4-minus-an-edge gadgets, each with an
// apex joined to its two degree-2 vertices, apexes bridged.
Graph cubic_bridge_graph() {
  std::vector<Edge> edges;
  auto gadget = [&edges](int base, int apex) {
    // K4 minus edge {base, base+1} on {base..base+3}.
    edges.insert(edges.end(), {{base, base + 2},
                               {base, base + 3},
                               {base + 1, base + 2},
                               {base + 1, base + 3},
                               {base + 2, base + 3},
                               {apex, base},
                               {apex, base + 1}});
  };
  gadget(0, 8);
  gadget(4, 9);
  edges.emplace_back(8, 9);
  return Graph::from_edges(10, edges);
}

TEST(BrooksSeq, RegularWithCutVertexOrBridge) {
  const Graph g = cubic_bridge_graph();
  for (int v = 0; v < g.num_vertices(); ++v) ASSERT_EQ(g.degree(v), 3);
  const Coloring c = brooks_coloring(g);
  EXPECT_TRUE(is_proper_with_palette(g, c, 3));
}

TEST(BrooksSeq, RejectsCliques) {
  EXPECT_THROW(brooks_coloring(clique_graph(5)), ContractViolation);
}

TEST(BrooksSeq, RejectsLowDegree) {
  EXPECT_THROW(brooks_coloring(cycle_graph(5)), ContractViolation);
}

class BrooksSeqRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BrooksSeqRandomTest, RandomRegularGraphs) {
  const auto [n, d, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Graph g = random_regular(n, d, rng);
  if (!is_connected(g)) GTEST_SKIP() << "disconnected sample";
  const Coloring c = brooks_coloring(g);
  EXPECT_TRUE(is_proper_with_palette(g, c, d));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BrooksSeqRandomTest,
    ::testing::Combine(::testing::Values(20, 60, 120),
                       ::testing::Values(3, 4, 6),
                       ::testing::Values(1, 2, 3)));

TEST(BrooksSeqComponents, MixedComponents) {
  Graph g = disjoint_union(petersen_graph(), clique_graph(3));
  g = disjoint_union(g, cycle_graph(7));
  g = disjoint_union(g, path_graph(4));
  const Coloring c = brooks_coloring_components(g, 3);
  EXPECT_TRUE(is_proper_with_palette(g, c, 3));
}

TEST(BrooksSeqComponents, RejectsOversizedClique) {
  const Graph g = disjoint_union(petersen_graph(), clique_graph(4));
  EXPECT_THROW(brooks_coloring_components(g, 3), ContractViolation);
}

TEST(BrooksSeqComponents, GallaiTrees) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Graph g = random_gallai_tree(80, 4, rng);
    const Coloring c = brooks_coloring_components(g, g.max_degree());
    EXPECT_TRUE(is_proper_with_palette(g, c, g.max_degree()));
  }
}

}  // namespace
}  // namespace deltacol
