// Distributed (deg+1)-list coloring on palette instances: the deterministic
// class-sweep engine and the randomized trial engine (Theorems 18/19
// stand-ins) of color_vertex_set_as_list_instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "coloring/linial.h"
#include "coloring/list_coloring.h"
#include "graph/generators.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

using Palette = std::function<int(int)>;

constexpr ListEngine kEngines[] = {ListEngine::kDeterministic,
                                   ListEngine::kRandomized};

// A random proper partial coloring: in id order, each vertex with
// probability 1/3 takes a random color of [0, palette(v)) that no neighbor
// holds yet. With palette(v) >= deg(v) + 1 the rest is a (deg+1) instance.
Coloring random_precoloring(const Graph& g, const Palette& palette, Rng& rng) {
  Coloring c(static_cast<std::size_t>(g.num_vertices()), kUncolored);
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (rng.next_below(3) != 0) continue;
    const auto free = free_colors(g, c, v, palette(v));
    if (!free.empty()) {
      c[static_cast<std::size_t>(v)] =
          free[static_cast<std::size_t>(rng.next_below(free.size()))];
    }
  }
  return c;
}

struct Outcome {
  Coloring coloring;
  std::int64_t rounds = 0;
  int schedule_colors = 0;
};

// Precolors g at random, colors all of it as one instance with Linial's
// schedule and checks the contract: the coloring is proper and complete,
// every color is below its vertex's palette, and precolored vertices keep
// theirs.
Outcome color_all(const Graph& g, const Palette& palette, ListEngine engine,
                  std::uint64_t seed, ThreadPool* pool = nullptr) {
  Rng rng(seed);
  const Coloring pre = random_precoloring(g, palette, rng);
  RoundLedger tmp;
  const LinialResult lin = linial_coloring(g, tmp);
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  Outcome out{pre, 0, lin.num_colors};
  RoundLedger ledger;
  color_vertex_set_as_list_instance(g, all, palette, lin.coloring,
                                    lin.num_colors, engine, &rng, out.coloring,
                                    ledger, "t", pool);
  out.rounds = ledger.total();
  EXPECT_TRUE(is_proper_complete(g, out.coloring));
  for (int v = 0; v < g.num_vertices(); ++v) {
    const Color x = out.coloring[static_cast<std::size_t>(v)];
    EXPECT_LT(x, palette(v)) << "vertex " << v;
    if (pre[static_cast<std::size_t>(v)] != kUncolored) {
      EXPECT_EQ(x, pre[static_cast<std::size_t>(v)]) << "vertex " << v;
    }
  }
  return out;
}

class ListColoringTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ListColoringTest, BothEngines) {
  const auto [n, d, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Graph g = random_regular(n, d, rng);
  for (const ListEngine engine : kEngines) {
    for (const int palette : {d + 1, d + 3}) {
      const Outcome out = color_all(g, [palette](int) { return palette; },
                                    engine, static_cast<std::uint64_t>(seed));
      if (engine == ListEngine::kDeterministic) {
        EXPECT_EQ(out.rounds, out.schedule_colors);  // one round per class
      } else {
        EXPECT_GT(out.rounds, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListColoringTest,
    ::testing::Combine(::testing::Values(24, 96, 300),
                       ::testing::Values(3, 4, 6),
                       ::testing::Values(1, 2)));

TEST(ListColoring, PerVertexPalettesDegPlusOne) {
  // The network decomposition's shape: palette deg(v) + 1, on a power-law
  // graph whose hubs take the bit-vector scan (deg + 1 > 64) and the rest
  // the one-word scan. Each engine colors alike serially and on a pool.
  Rng rng(11);
  const Graph g = preferential_attachment(2000, 3, rng);
  ASSERT_GT(g.max_degree(), 64);
  const Palette palette = [&g](int v) { return g.degree(v) + 1; };
  ThreadPool pool(4);
  for (const ListEngine engine : kEngines) {
    const Outcome serial = color_all(g, palette, engine, 5);
    const Outcome pooled = color_all(g, palette, engine, 5, &pool);
    EXPECT_EQ(serial.coloring, pooled.coloring);
    EXPECT_EQ(serial.rounds, pooled.rounds);
  }
}

TEST(ListColoring, TightCliquesOnBothSidesOf64) {
  // K_m on palette m is as tight as a (deg+1) instance gets: every color
  // is used once. m around 64 moves first_free_color between its scans.
  for (const int m : {63, 64, 65, 100}) {
    const Graph g = clique_graph(m);
    for (const ListEngine engine : kEngines) {
      const Outcome out = color_all(g, [m](int) { return m; }, engine, 3);
      std::vector<int> sorted = out.coloring;
      std::sort(sorted.begin(), sorted.end());
      std::vector<int> expected(static_cast<std::size_t>(m));
      std::iota(expected.begin(), expected.end(), 0);
      EXPECT_EQ(sorted, expected) << "m=" << m;
    }
  }
}

TEST(ListColoring, ColorsOnlyTheUncoloredMembers) {
  // Duplicates merge, a colored member keeps its color, non-members stay
  // uncolored.
  const Graph g = cycle_graph(6);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  for (const ListEngine engine : kEngines) {
    Coloring c(6, kUncolored);
    c[0] = 2;
    RoundLedger ledger;
    Rng rng(1);
    color_vertex_set_as_list_instance(g, {3, 0, 1, 1, 2}, [](int) { return 3; },
                                      lin.coloring, lin.num_colors, engine,
                                      &rng, c, ledger, "t");
    EXPECT_EQ(c[0], 2);
    for (int v : {1, 2, 3}) EXPECT_NE(c[static_cast<std::size_t>(v)], kUncolored);
    EXPECT_EQ(c[4], kUncolored);
    EXPECT_EQ(c[5], kUncolored);
    EXPECT_TRUE(is_proper_partial(g, c));
  }
}

TEST(ListColoring, RandomizedMatchesLogNRoundBudget) {
  Rng rng(31);
  const Graph g = random_regular(4096, 4, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  std::vector<int> all(4096);
  std::iota(all.begin(), all.end(), 0);
  Coloring c(4096, kUncolored);
  RoundLedger ledger;
  Rng draws(7);
  color_vertex_set_as_list_instance(g, all, [](int) { return 5; }, lin.coloring,
                                    lin.num_colors, ListEngine::kRandomized,
                                    &draws, c, ledger, "t");
  EXPECT_TRUE(is_proper_with_palette(g, c, 5));
  // 4 log2 n + 16 is the internal cap before deterministic fallback; on
  // deg+1 instances the trial engine should finish well under it.
  EXPECT_LE(ledger.total(), 4 * 12 + 16);
}

TEST(ListColoring, RandomizedFallsBackAfterItsRoundBudget) {
  // Two adjacent members with free colors {0, 1}. With this seed they draw
  // the same color in each of the 4 ceil(log2 2) + 16 = 20 trial rounds,
  // so the det sweep completes them, in the schedule's two classes, and
  // only then checks the schedule.
  const Graph g = path_graph(2);
  Coloring c(2, kUncolored);
  RoundLedger ledger;
  Rng rng(177862);
  color_vertex_set_as_list_instance(g, {0, 1}, [](int) { return 2; }, {1, 0},
                                    2, ListEngine::kRandomized, &rng, c,
                                    ledger, "t");
  EXPECT_EQ(ledger.total(), 20 + 2);
  EXPECT_EQ(c, (Coloring{1, 0}));  // class 0 (vertex 1) picks first

  Coloring again(2, kUncolored);
  Rng same(177862);
  EXPECT_THROW(color_vertex_set_as_list_instance(
                   g, {0, 1}, [](int) { return 2; }, {0, 0}, 2,
                   ListEngine::kRandomized, &same, again, ledger, "t"),
               ContractViolation);
}

}  // namespace
}  // namespace deltacol
