// Cross-validation property tests: every polynomial-time construction in
// the library is checked against an independent exact oracle on randomized
// small instances.
//
//  * degree_choosable_coloring vs brute-force list coloring (feasibility
//    must agree; produced colorings must verify);
//  * Theorem 8 both directions: Gallai tree <=> not degree-choosable, via
//    randomized tight-list probing;
//  * dcc detection vs girth (high girth certifies DCC-free balls);
//  * delta_color output vs sequential Brooks (both must exist and verify).
#include <gtest/gtest.h>

#include "coloring/brooks_seq.h"
#include "coloring/brute.h"
#include "coloring/degree_choosable.h"
#include "core/api.h"
#include "dcc/dcc.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "graph/structure.h"
#include "util/rng.h"

namespace deltacol {
namespace {

// Random connected graph with >= some cycles, small enough to brute force.
Graph small_random_graph(Rng& rng) {
  return random_graph_max_degree(rng.next_int(6, 14), 4, 1.4, rng);
}

ListAssignment random_tight_lists(const Graph& g, int palette, Rng& rng) {
  ListAssignment lists(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    std::vector<Color> pool;
    for (Color x = 0; x < palette; ++x) pool.push_back(x);
    rng.shuffle(pool);
    const int want = std::min(palette, g.degree(v));
    for (int i = 0; i < want; ++i) {
      lists[static_cast<std::size_t>(v)].push_back(pool[static_cast<std::size_t>(i)]);
    }
    std::sort(lists[static_cast<std::size_t>(v)].begin(),
              lists[static_cast<std::size_t>(v)].end());
  }
  return lists;
}

class DegreeChoosableVsBruteTest : public ::testing::TestWithParam<int> {};

TEST_P(DegreeChoosableVsBruteTest, FeasibilityAgreesWithExactSearch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 13);
  for (int trial = 0; trial < 25; ++trial) {
    Graph g = small_random_graph(rng);
    if (!is_connected(g)) continue;
    const auto lists = random_tight_lists(g, 5, rng);
    const auto constructive = degree_choosable_coloring(g, lists);
    const auto exact = brute_force_list_coloring(g, lists);
    ASSERT_EQ(constructive.has_value(), exact.has_value())
        << "feasibility disagreement, trial " << trial;
    if (constructive) {
      EXPECT_TRUE(is_proper_complete(g, *constructive));
      EXPECT_TRUE(respects_lists(*constructive, lists));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegreeChoosableVsBruteTest,
                         ::testing::Range(1, 9));

TEST(Theorem8, CliqueTreesRefuseTheErtWitnessLists) {
  // Theorem 8, only-if direction, on trees of cliques: give each clique
  // block B of size s a private palette S_B of s-1 colors and set
  // L(v) = union of S_B over blocks containing v. Then |L(v)| = deg(v) and
  // the instance is infeasible: in a leaf block the s-1 non-cut vertices
  // exhaust S_B, forcing the cut vertex out of S_B, and induction peels the
  // block tree.
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    // Build a random tree of cliques.
    std::vector<Edge> edges;
    std::vector<std::vector<int>> blocks;
    int next_vertex = 1;
    std::vector<int> attach_points{0};
    const int num_blocks = rng.next_int(2, 5);
    for (int b = 0; b < num_blocks; ++b) {
      const int host = attach_points[static_cast<std::size_t>(
          rng.next_below(attach_points.size()))];
      const int size = rng.next_int(3, 4);
      std::vector<int> members{host};
      for (int i = 1; i < size; ++i) {
        members.push_back(next_vertex++);
        attach_points.push_back(members.back());
      }
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          edges.emplace_back(members[i], members[j]);
        }
      }
      blocks.push_back(members);
    }
    const Graph g = Graph::from_edges(next_vertex, edges);
    ASSERT_TRUE(is_gallai_tree(g));
    ListAssignment lists(static_cast<std::size_t>(next_vertex));
    int next_color = 0;
    for (const auto& members : blocks) {
      const int demand = static_cast<int>(members.size()) - 1;
      for (int v : members) {
        for (int x = 0; x < demand; ++x) {
          lists[static_cast<std::size_t>(v)].push_back(next_color + x);
        }
      }
      next_color += demand;
    }
    for (int v = 0; v < next_vertex; ++v) {
      auto& l = lists[static_cast<std::size_t>(v)];
      std::sort(l.begin(), l.end());
      ASSERT_EQ(static_cast<int>(l.size()), g.degree(v));
    }
    EXPECT_FALSE(brute_force_list_coloring(g, lists).has_value())
        << "trial " << trial;
  }
}

TEST(Theorem8, NonGallaiAlwaysDegreeColorableFromProbes) {
  // If-direction probe: graphs with a DCC accept every deg-sized list
  // assignment we try.
  Rng rng(6);
  int probed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Graph g = small_random_graph(rng);
    if (!is_connected(g) || is_gallai_tree(g)) continue;
    const auto lists = random_tight_lists(g, 5, rng);
    bool tight = true;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (static_cast<int>(lists[static_cast<std::size_t>(v)].size()) <
          g.degree(v)) {
        tight = false;  // palette was too small for this degree
      }
    }
    if (!tight) continue;
    EXPECT_TRUE(brute_force_list_coloring(g, lists).has_value())
        << "trial " << trial;
    ++probed;
  }
  EXPECT_GT(probed, 5);
}

TEST(DccVsGirth, HighGirthMeansDccFreeBalls) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_regular(200, 3, rng);
    const int gi = girth(g);
    if (gi < 0) continue;
    const int safe_r = (gi - 2) / 2;  // balls of this radius are trees
    if (safe_r < 1) continue;
    for (int v = 0; v < g.num_vertices(); v += 17) {
      EXPECT_FALSE(ball_contains_dcc(g, v, safe_r))
          << "girth " << gi << " vertex " << v;
    }
  }
}

class AlgorithmsVsBrooksSeq : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmsVsBrooksSeq, BothProduceValidColorings) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  const Graph g = random_regular(150, 4, rng);
  if (!is_connected(g)) GTEST_SKIP();
  const Coloring seq = brooks_coloring(g);
  EXPECT_TRUE(is_proper_with_palette(g, seq, 4));
  DeltaColoringOptions opt;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  const auto dist = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_TRUE(is_proper_with_palette(g, dist.coloring, 4));
  // Same chromatic budget from two unrelated constructions.
  EXPECT_LE(num_colors_used(dist.coloring), 4);
  EXPECT_LE(num_colors_used(seq), 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmsVsBrooksSeq, ::testing::Range(1, 7));

TEST(SameSeedSameResult, RandomizedRunsAreReproducible) {
  Rng rng(9);
  const Graph g = random_regular(300, 4, rng);
  for (Algorithm alg : {Algorithm::kRandomizedLarge,
                        Algorithm::kRandomizedSmall,
                        Algorithm::kBaselineND,
                        Algorithm::kBaselineGreedyBrooks}) {
    DeltaColoringOptions opt;
    opt.seed = 77;
    const auto a = delta_color(g, alg, opt);
    const auto b = delta_color(g, alg, opt);
    EXPECT_EQ(a.coloring, b.coloring) << algorithm_name(alg);
    EXPECT_EQ(a.ledger.total(), b.ledger.total()) << algorithm_name(alg);
  }
}

}  // namespace
}  // namespace deltacol
