// The SLOCAL variant of Delta-coloring (Remark 17).
#include <gtest/gtest.h>

#include <cmath>

#include "core/slocal.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace deltacol {
namespace {

class SlocalTest : public ::testing::TestWithParam<int> {};

TEST_P(SlocalTest, ColorsAndStaysLocal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = random_regular(500, 4, rng);
  const auto res = slocal_delta_coloring(g);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
  // Remark 17: locality O(log_{Delta-1} n) — generous constant of 3.
  const double bound =
      3.0 * std::log(500.0) / std::log(3.0) + 4.0;
  EXPECT_LE(res.max_locality, static_cast<int>(bound));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlocalTest, ::testing::Range(1, 7));

TEST(Slocal, WorksOnStructuredGraphs) {
  for (const Graph& g : {petersen_graph(), grid_graph(8, 8, true),
                         hypercube_graph(4), clique_ring(4, 4)}) {
    const auto res = slocal_delta_coloring(g);
    EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, g.max_degree()));
  }
}

TEST(Slocal, GallaiTrees) {
  Rng rng(3);
  const Graph g = random_gallai_tree(200, 4, rng);
  const auto res = slocal_delta_coloring(g);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, g.max_degree()));
}

TEST(Slocal, RejectsLowDegree) {
  EXPECT_THROW(slocal_delta_coloring(cycle_graph(6)), ContractViolation);
}

}  // namespace
}  // namespace deltacol
