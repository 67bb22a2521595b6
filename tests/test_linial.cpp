// Linial's O(Delta^2) coloring: correctness, palette size, round count, and
// the frozen schedule hashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "coloring/linial.h"
#include "graph/generators.h"
#include "local/round_ledger.h"
#include "runtime/thread_pool.h"
#include "test_support.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace deltacol {
namespace {

class LinialTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LinialTest, ProperSmallPaletteFewRounds) {
  const auto [n, d] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n + d));
  const Graph g = random_regular(n, d, rng);
  RoundLedger ledger;
  const LinialResult res = linial_coloring(g, ledger);
  EXPECT_TRUE(is_proper_with_palette(g, res.coloring, res.num_colors));
  // Fixpoint palette is (next_prime(~2 Delta))^2 = O(Delta^2).
  EXPECT_LE(res.num_colors, 25 * (d + 1) * (d + 1));
  // O(log* n) rounds: generous absolute cap.
  EXPECT_LE(res.rounds, 8);
  EXPECT_EQ(ledger.total(), res.rounds);
  EXPECT_EQ(ledger.phase_total("linial"), res.rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinialTest,
    ::testing::Combine(::testing::Values(32, 256, 2048),
                       ::testing::Values(3, 4, 8)));

TEST(Linial, WorksOnPathAndCycle) {
  for (const Graph& g : {path_graph(100), cycle_graph(101)}) {
    RoundLedger ledger;
    const LinialResult res = linial_coloring(g, ledger);
    EXPECT_TRUE(is_proper_with_palette(g, res.coloring, res.num_colors));
    EXPECT_LE(res.num_colors, 49);  // O(Delta^2) with Delta = 2
  }
}

TEST(Linial, LargeDegreeSmallGraph) {
  const Graph g = complete_bipartite(10, 10);
  RoundLedger ledger;
  const LinialResult res = linial_coloring(g, ledger);
  EXPECT_TRUE(is_proper_with_palette(g, res.coloring, res.num_colors));
}

TEST(Linial, DeterministicAcrossRuns) {
  Rng rng(5);
  const Graph g = random_regular(128, 4, rng);
  RoundLedger l1, l2;
  const auto a = linial_coloring(g, l1);
  const auto b = linial_coloring(g, l2);
  EXPECT_EQ(a.coloring, b.coloring);
  EXPECT_EQ(a.num_colors, b.num_colors);
}

TEST(ColorReduction, ReducesToDeltaPlusOne) {
  Rng rng(77);
  const Graph g = random_regular(512, 4, rng);
  RoundLedger ledger;
  const auto lin = linial_coloring(g, ledger);
  const auto red =
      reduce_to_delta_plus_one(g, lin.coloring, lin.num_colors, ledger);
  EXPECT_EQ(red.num_colors, 5);
  EXPECT_TRUE(is_proper_with_palette(g, red.coloring, 5));
  // One round per eliminated class.
  EXPECT_EQ(ledger.phase_total("color-reduction"), lin.num_colors - 5);
}

TEST(ColorReduction, NoopWhenAlreadySmall) {
  const Graph g = cycle_graph(6);
  const Coloring c{0, 1, 0, 1, 0, 1};
  RoundLedger ledger;
  const auto red = reduce_to_delta_plus_one(g, c, 2, ledger);
  EXPECT_EQ(red.coloring, c);
  EXPECT_EQ(ledger.total(), 0);
}

TEST(ColorReduction, RejectsImproperInput) {
  const Graph g = path_graph(3);
  RoundLedger ledger;
  EXPECT_THROW(reduce_to_delta_plus_one(g, {0, 0, 1}, 2, ledger),
               ContractViolation);
}

TEST(ColorReduction, ScheduleHelperEndToEnd) {
  Rng rng(78);
  const Graph g = random_regular(1024, 6, rng);
  RoundLedger ledger;
  const auto sched = delta_plus_one_schedule(g, ledger);
  EXPECT_EQ(sched.num_colors, 7);
  EXPECT_TRUE(is_proper_with_palette(g, sched.coloring, 7));
  EXPECT_EQ(ledger.total(), sched.rounds);
}

TEST(Linial, RoundsGrowSlowlyWithN) {
  // log*-type growth: going from 2^6 to 2^16 vertices should add at most a
  // couple of rounds.
  Rng rng(9);
  const Graph small = random_regular(64, 4, rng);
  const Graph big = random_regular(65536, 4, rng);
  RoundLedger ls, lb;
  const auto rs = linial_coloring(small, ls);
  const auto rb = linial_coloring(big, lb);
  EXPECT_LE(rb.rounds, rs.rounds + 3);
}

// The coloring, num_colors and rounds of a LinialResult folded through
// FNV-1a.
std::uint64_t schedule_fingerprint(const LinialResult& r) {
  using test_support::fnv1a;
  std::uint64_t h = test_support::kFnvOffset;
  for (Color c : r.coloring) h = fnv1a(h, static_cast<std::uint64_t>(c));
  h = fnv1a(h, static_cast<std::uint64_t>(r.num_colors));
  return fnv1a(h, static_cast<std::uint64_t>(r.rounds));
}

struct ScheduleGolden {
  const char* graph;
  std::uint64_t linial;    // linial_coloring
  std::uint64_t schedule;  // delta_plus_one_schedule
};

// Frozen output of both schedule entry points. Any change to the Linial
// rounds or the class reduction must land on these hashes serially and on
// a pool.
constexpr ScheduleGolden kScheduleGoldens[] = {
    {"regular-500-6", 0x3ea3ad4506b1e0afULL, 0x12aa82f1dcce9d83ULL},
    {"gallai-400-4", 0x26ba0f482c86cea7ULL, 0x40e2155d0b5f9812ULL},
    {"sparse-400-6", 0x3423df8aec7cf676ULL, 0x9abdc8c591b804c6ULL},
    {"3-components", 0x01bb6d300d55798bULL, 0x71b83f89cd4ecaa6ULL},
    {"triangle-cactus", 0x4145abfc5870653eULL, 0x131565584e9b8fd4ULL},
    {"regular-3000-8", 0x59f5f5573a05ffbdULL, 0x93191090c43e5558ULL},
    {"pa-3000-3", 0x9cd95d617ac1fbb4ULL, 0xef18a1c86cbe67e3ULL},
};

TEST(Linial, ScheduleLandsOnFrozenHashes) {
  std::vector<NamedWorkload> graphs = generator_zoo();
  Rng rng(19);
  graphs.push_back({"regular-3000-8", random_regular(3000, 8, rng)});
  graphs.push_back({"pa-3000-3", preferential_attachment(3000, 3, rng)});

  ThreadPool pool(4);
  for (const ScheduleGolden& golden : kScheduleGoldens) {
    const Graph* g = nullptr;
    for (const auto& w : graphs) {
      if (w.name == golden.graph) g = &w.graph;
    }
    ASSERT_NE(g, nullptr) << golden.graph;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const char* shape = p == nullptr ? "serial" : "pool of 4";
      RoundLedger linial_ledger, schedule_ledger;
      EXPECT_EQ(schedule_fingerprint(linial_coloring(*g, linial_ledger, p)),
                golden.linial)
          << golden.graph << " linial " << shape;
      EXPECT_EQ(schedule_fingerprint(
                    delta_plus_one_schedule(*g, schedule_ledger, p)),
                golden.schedule)
          << golden.graph << " schedule " << shape;
    }
  }
}

}  // namespace
}  // namespace deltacol
