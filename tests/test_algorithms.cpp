// Integration tests: every algorithm on the full graph zoo must produce a
// valid Delta-coloring (Theorems 1, 3, 4, 21 + baselines).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/api.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

struct Workload {
  const char* name;
  Graph graph;
};

std::vector<Workload> graph_zoo() {
  std::vector<Workload> zoo;
  Rng rng(2024);
  zoo.push_back({"petersen", petersen_graph()});
  zoo.push_back({"torus_8x8", grid_graph(8, 8, true)});
  zoo.push_back({"grid_9x9", grid_graph(9, 9, false)});
  zoo.push_back({"hypercube_4", hypercube_graph(4)});
  zoo.push_back({"circulant_40_1_2", circulant_graph(40, {1, 2})});
  zoo.push_back({"random_regular_200_4", random_regular(200, 4, rng)});
  zoo.push_back({"random_regular_150_6", random_regular(150, 6, rng)});
  zoo.push_back({"random_maxdeg_300_5", random_graph_max_degree(300, 5, 1.6, rng)});
  zoo.push_back({"tree_200_4", random_tree(200, 4, rng)});
  zoo.push_back({"gallai_tree_120_4", random_gallai_tree(120, 4, rng)});
  zoo.push_back({"clique_ring_5x4", clique_ring(5, 4)});
  zoo.push_back({"theta_5_6_7", theta_graph(5, 6, 7)});
  zoo.push_back({"kary_tree_3_4", complete_kary_tree(3, 4)});
  zoo.push_back({"star_10", star_graph(10)});
  zoo.push_back({"bipartite_4_7", complete_bipartite(4, 7)});
  return zoo;
}

class AlgorithmZooTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, int>> {};

TEST_P(AlgorithmZooTest, ProducesValidDeltaColoring) {
  const auto [alg, zoo_index] = GetParam();
  auto zoo = graph_zoo();
  const auto& wl = zoo[static_cast<std::size_t>(zoo_index)];
  const Graph& g = wl.graph;
  if (alg == Algorithm::kRandomizedLarge && g.max_degree() < 4) {
    GTEST_SKIP() << "Theorem 3 needs Delta >= 4";
  }
  DeltaColoringOptions opt;
  opt.seed = 42;
  const auto res = delta_color(g, alg, opt);
  EXPECT_EQ(res.delta, g.max_degree());
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, res.delta))
      << wl.name;
  EXPECT_GT(res.ledger.total(), 0) << wl.name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, AlgorithmZooTest,
    ::testing::Combine(
        ::testing::Values(Algorithm::kDeterministic,
                          Algorithm::kRandomizedLarge,
                          Algorithm::kRandomizedSmall, Algorithm::kBaselineND,
                          Algorithm::kBaselineGreedyBrooks),
        ::testing::Range(0, 15)));

class AlgorithmSeedSweep
    : public ::testing::TestWithParam<std::tuple<Algorithm, int>> {};

TEST_P(AlgorithmSeedSweep, RandomRegularManySeeds) {
  const auto [alg, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  const Graph g = random_regular(250, 4, rng);
  DeltaColoringOptions opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  const auto res = delta_color(g, alg, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AlgorithmSeedSweep,
    ::testing::Combine(::testing::Values(Algorithm::kRandomizedLarge,
                                         Algorithm::kRandomizedSmall),
                       ::testing::Range(1, 9)));

TEST(Algorithms, DeterministicIsDeterministic) {
  Rng rng(55);
  const Graph g = random_regular(300, 4, rng);
  DeltaColoringOptions opt;
  const auto a = delta_color(g, Algorithm::kDeterministic, opt);
  const auto b = delta_color(g, Algorithm::kDeterministic, opt);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
}

TEST(Algorithms, SeedChangesRandomizedRun) {
  Rng rng(56);
  const Graph g = random_regular(300, 4, rng);
  DeltaColoringOptions o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  const auto a = delta_color(g, Algorithm::kRandomizedLarge, o1);
  const auto b = delta_color(g, Algorithm::kRandomizedLarge, o2);
  // Both valid; almost surely different colorings.
  EXPECT_NO_THROW(validate_delta_coloring(g, a.coloring, 4));
  EXPECT_NO_THROW(validate_delta_coloring(g, b.coloring, 4));
}

TEST(Algorithms, DisconnectedGraphs) {
  Rng rng(57);
  Graph g = disjoint_union(petersen_graph(), grid_graph(5, 5, true));
  g = disjoint_union(g, clique_graph(3));
  g = disjoint_union(g, cycle_graph(9));
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, {});
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
}

TEST(Algorithms, RejectsDeltaPlusOneClique) {
  EXPECT_THROW(delta_color(clique_graph(5), Algorithm::kDeterministic, {}),
               ContractViolation);
  // Also when the clique hides among other components.
  const Graph g = disjoint_union(grid_graph(4, 4, true), clique_graph(5));
  EXPECT_THROW(delta_color(g, Algorithm::kDeterministic, {}),
               ContractViolation);
}

TEST(Algorithms, RejectsLowDegreeGraphs) {
  EXPECT_THROW(delta_color(cycle_graph(8), Algorithm::kDeterministic, {}),
               ContractViolation);
  EXPECT_THROW(delta_color(path_graph(5), Algorithm::kRandomizedSmall, {}),
               ContractViolation);
}

TEST(Algorithms, RandomizedLargeRejectsDelta3) {
  EXPECT_THROW(delta_color(petersen_graph(), Algorithm::kRandomizedLarge, {}),
               ContractViolation);
  // The small variant accepts Delta = 3.
  const auto res = delta_color(petersen_graph(), Algorithm::kRandomizedSmall, {});
  EXPECT_NO_THROW(validate_delta_coloring(petersen_graph(), res.coloring, 3));
}

// The radius options are checked once, before the first attempt: on a
// cycle every attempt would fail its own Delta >= 3 check first, so a
// message that names the option shows that no attempt ran.
TEST(Algorithms, RejectsOutOfRangeRadiusOptionsBeforeAnyAttempt) {
  const auto message = [](Algorithm alg, const DeltaColoringOptions& opt) {
    try {
      delta_color(cycle_graph(8), alg, opt);
    } catch (const ContractViolation& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  DeltaColoringOptions cap1;
  cap1.small_variant_radius_cap = 1;
  DeltaColoringOptions radius0;
  radius0.dcc_radius = 0;
  for (const Algorithm alg :
       {Algorithm::kRandomizedLarge, Algorithm::kRandomizedSmall}) {
    const std::string cap_msg = message(alg, cap1);
    EXPECT_NE(cap_msg.find("small_variant_radius_cap"), std::string::npos)
        << cap_msg;
    const std::string radius_msg = message(alg, radius0);
    EXPECT_NE(radius_msg.find("dcc_radius"), std::string::npos) << radius_msg;
  }

  // The marking options too: an explicit backoff in [0, 3) and a
  // selection_prob above 1 or NaN, each named with its value.
  for (const Algorithm alg :
       {Algorithm::kRandomizedLarge, Algorithm::kRandomizedSmall}) {
    for (const int backoff : {0, 2}) {
      DeltaColoringOptions opt;
      opt.backoff = backoff;
      const std::string msg = message(alg, opt);
      EXPECT_NE(msg.find("backoff must be negative (auto) or at least 3, got " +
                         std::to_string(backoff)),
                std::string::npos)
          << msg;
    }
    for (const double p : {1.5, std::nan("")}) {
      DeltaColoringOptions opt;
      opt.selection_prob = p;
      const std::string msg = message(alg, opt);
      EXPECT_NE(msg.find("selection_prob must be negative (auto) or in "
                         "[0, 1], got " +
                         std::to_string(p)),
                std::string::npos)
          << msg;
    }
  }

  // The smallest valid values still color.
  Rng rng(59);
  const Graph g = random_regular(400, 4, rng);
  DeltaColoringOptions smallest;
  smallest.small_variant_radius_cap = 2;
  smallest.dcc_radius = 1;
  smallest.backoff = 3;
  smallest.selection_prob = 0;
  for (const Algorithm alg :
       {Algorithm::kRandomizedLarge, Algorithm::kRandomizedSmall}) {
    const auto res = delta_color(g, alg, smallest);
    EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
  }
}

TEST(Algorithms, PaperConstantsMode) {
  Rng rng(60);
  const Graph g = random_regular(400, 4, rng);
  DeltaColoringOptions opt;
  opt.use_paper_constants = true;  // b = 6, p = Delta^-6
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
}

TEST(Algorithms, RandomizedListEngine) {
  Rng rng(61);
  const Graph g = random_regular(300, 5, rng);
  DeltaColoringOptions opt;
  opt.list_engine = ListEngine::kRandomized;
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 5));
}

TEST(Algorithms, LedgerHasPhaseBreakdown) {
  Rng rng(62);
  const Graph g = random_regular(300, 4, rng);
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, {});
  EXPECT_GT(res.ledger.phase_total("linial"), 0);
  EXPECT_GT(res.ledger.phase_total("rand/1-dcc-detect"), 0);
  EXPECT_FALSE(res.ledger.report().empty());
}

TEST(Algorithms, NamesAreHuman) {
  EXPECT_NE(algorithm_name(Algorithm::kDeterministic).find("Thm 4"),
            std::string::npos);
  EXPECT_NE(algorithm_name(Algorithm::kBaselineND).find("PS95"),
            std::string::npos);
}

TEST(Algorithms, LargerDeltaGraphs) {
  Rng rng(63);
  const Graph g = random_regular(120, 10, rng);
  for (auto alg : {Algorithm::kDeterministic, Algorithm::kRandomizedLarge}) {
    const auto res = delta_color(g, alg, {});
    EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 10));
  }
}

TEST(Algorithms, GallaiTreeHeavyGraphIsHardButColored) {
  // Gallai trees have no DCC anywhere: the randomized algorithm must rely
  // on boundary/T-node happiness and Section 4.3 entirely.
  Rng rng(64);
  const Graph g = random_gallai_tree(300, 4, rng);
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, {});
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, g.max_degree()));
  EXPECT_EQ(res.stats.num_dccs_selected, 0);
}

}  // namespace
}  // namespace deltacol
