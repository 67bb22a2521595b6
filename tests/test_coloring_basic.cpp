// Coloring vocabulary, greedy, and the exact brute-force list colorer.
#include <gtest/gtest.h>

#include "coloring/brute.h"
#include "coloring/coloring.h"
#include "coloring/greedy.h"
#include "graph/generators.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Coloring, ProperChecks) {
  const Graph g = cycle_graph(4);
  Coloring c{0, 1, 0, 1};
  EXPECT_TRUE(is_proper_complete(g, c));
  EXPECT_TRUE(is_proper_with_palette(g, c, 2));
  c[2] = 1;
  EXPECT_FALSE(is_proper_partial(g, c));
  c[2] = kUncolored;
  EXPECT_TRUE(is_proper_partial(g, c));
  EXPECT_FALSE(is_proper_complete(g, c));
  EXPECT_EQ(count_uncolored(c), 1);
  EXPECT_EQ(num_colors_used(c), 2);
}

TEST(Coloring, ValidatorDiagnostics) {
  const Graph g = path_graph(3);
  EXPECT_THROW(validate_delta_coloring(g, {0, 1, kUncolored}, 2),
               ContractViolation);
  EXPECT_THROW(validate_delta_coloring(g, {0, 1, 5}, 2), ContractViolation);
  EXPECT_THROW(validate_delta_coloring(g, {0, 0, 1}, 2), ContractViolation);
  EXPECT_NO_THROW(validate_delta_coloring(g, {0, 1, 0}, 2));
}

TEST(Coloring, FreeColors) {
  const Graph g = star_graph(3);
  Coloring c{kUncolored, 0, 1, 0};
  const auto fc = free_colors(g, c, 0, 4);
  EXPECT_EQ(fc, (std::vector<Color>{2, 3}));
  EXPECT_EQ(first_free_color(g, c, 0, 4), 2);
  EXPECT_EQ(first_free_color(g, c, 0, 2), std::nullopt);
}

// first_free_color bounds its scan by min(palette, deg + 1) and keeps one
// word of bits up to 64: palettes and degrees on both sides of 64, and
// colors outside the palette, must give free_colors(...).front().
TEST(Coloring, FirstFreeColorMatchesFreeList) {
  Rng rng(13);
  const Graph graphs[] = {star_graph(100), star_graph(40), clique_graph(70),
                          random_regular(200, 8, rng),
                          preferential_attachment(1000, 3, rng)};
  for (const Graph& g : graphs) {
    for (int trial = 0; trial < 8; ++trial) {
      for (int palette : {1, 2, 8, 63, 64, 65, 100, 130}) {
        // A third uncolored, the rest uniform over twice the palette.
        Coloring c(static_cast<std::size_t>(g.num_vertices()));
        for (Color& x : c) {
          x = rng.next_below(3) == 0
                  ? kUncolored
                  : static_cast<Color>(rng.next_below(
                        static_cast<std::uint64_t>(2 * palette)));
        }
        for (int v = 0; v < g.num_vertices(); ++v) {
          const auto fc = free_colors(g, c, v, palette);
          const std::optional<Color> want =
              fc.empty() ? std::nullopt : std::optional<Color>(fc.front());
          ASSERT_EQ(first_free_color(g, c, v, palette), want)
              << "v=" << v << " palette=" << palette << " trial=" << trial;
        }
      }
    }
  }
  // The center of star_graph(100), its leaves colored 0..99: palettes of 64
  // (one word) and 100 (a bit vector) are exhausted, 101 leaves color 100.
  const Graph star = star_graph(100);
  Coloring c(101, kUncolored);
  for (int leaf = 1; leaf <= 100; ++leaf) {
    c[static_cast<std::size_t>(leaf)] = leaf - 1;
  }
  EXPECT_EQ(first_free_color(star, c, 0, 64), std::nullopt);
  EXPECT_EQ(first_free_color(star, c, 0, 100), std::nullopt);
  EXPECT_EQ(first_free_color(star, c, 0, 101), 100);
  c[64] = kUncolored;  // frees color 63
  EXPECT_EQ(first_free_color(star, c, 0, 64), 63);
  EXPECT_EQ(first_free_color(star, c, 0, 130), 63);
  EXPECT_EQ(first_free_color(star, c, 0, 0), std::nullopt);
}

TEST(Coloring, RespectsLists) {
  ListAssignment lists{{0, 2}, {1}};
  EXPECT_TRUE(respects_lists({2, 1}, lists));
  EXPECT_FALSE(respects_lists({1, 1}, lists));
  EXPECT_FALSE(respects_lists({2, kUncolored}, lists));
}

TEST(Greedy, RespectsPrecoloring) {
  const Graph g = path_graph(3);
  Coloring c{kUncolored, 1, kUncolored};
  greedy_color_in_order(g, {0, 2}, 2, c);
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[1], 1);
  EXPECT_EQ(c[2], 0);
}

TEST(Greedy, ThrowsWhenPaletteTooSmall) {
  const Graph g = clique_graph(4);
  Coloring c(4, kUncolored);
  EXPECT_THROW(greedy_color_in_order(g, {0, 1, 2, 3}, 3, c),
               ContractViolation);
}

TEST(Greedy, DecreasingBfsOrderEndsAtRoot) {
  const Graph g = path_graph(5);
  const auto order = decreasing_bfs_order(g, 2);
  EXPECT_EQ(order.back(), 2);
  EXPECT_EQ(order.size(), 5u);
  // Distances never increase along the order.
  EXPECT_TRUE(order.front() == 0 || order.front() == 4);
}

TEST(Brute, OddCycleNeedsThreeColors) {
  const Graph g = cycle_graph(5);
  EXPECT_FALSE(is_k_colorable(g, 2));
  EXPECT_TRUE(is_k_colorable(g, 3));
}

TEST(Brute, EvenCycleTwoColorable) {
  EXPECT_TRUE(is_k_colorable(cycle_graph(6), 2));
}

TEST(Brute, CliqueChromaticNumber) {
  EXPECT_FALSE(is_k_colorable(clique_graph(4), 3));
  EXPECT_TRUE(is_k_colorable(clique_graph(4), 4));
}

TEST(Brute, PetersenIsThreeChromatic) {
  EXPECT_FALSE(is_k_colorable(petersen_graph(), 2));
  EXPECT_TRUE(is_k_colorable(petersen_graph(), 3));
}

TEST(Brute, ListInstanceWithPartialFixed) {
  const Graph g = path_graph(3);
  const ListAssignment lists{{0}, {0, 1}, {0}};
  Coloring partial{kUncolored, kUncolored, kUncolored};
  const auto c = brute_force_list_coloring(g, lists, partial);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(respects_lists(*c, lists));
  EXPECT_TRUE(is_proper_complete(g, *c));
}

TEST(Brute, DetectsInfeasibleLists) {
  // Odd cycle, identical 2-color lists: infeasible.
  const Graph g = cycle_graph(5);
  const ListAssignment lists(5, {0, 1});
  EXPECT_FALSE(brute_force_list_coloring(g, lists).has_value());
}

TEST(Brute, EvenCycleTightListsFeasible) {
  const Graph g = cycle_graph(6);
  const ListAssignment lists(6, {0, 1});
  const auto c = brute_force_list_coloring(g, lists);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(is_proper_complete(g, *c));
}

TEST(Brute, BudgetGuardFires) {
  // A hard instance with a tiny budget must throw, not hang.
  Rng rng(33);
  const Graph g = random_regular(30, 5, rng);
  const ListAssignment lists(30, {0, 1, 2});
  EXPECT_THROW(brute_force_list_coloring(g, lists, /*max_nodes=*/3),
               ContractViolation);
}

}  // namespace
}  // namespace deltacol
