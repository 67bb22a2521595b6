// MIS algorithms and (alpha, beta) ruling sets (Lemma 20 stand-ins).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dcc/dcc.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "mis/packing.h"
#include "mis/ruling_set.h"
#include "runtime/thread_pool.h"
#include "test_support.h"
#include "util/rng.h"

namespace deltacol {
namespace {

class MisTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MisTest, LubyProducesMis) {
  const auto [n, d, seed] = GetParam();
  Rng gen(static_cast<std::uint64_t>(seed) * 13 + 1);
  const Graph g = random_regular(n, d, gen);
  RoundLedger ledger;
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto mis = luby_mis(g, rng, ledger, "mis");
  EXPECT_TRUE(is_mis(g, mis));
  EXPECT_GT(ledger.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MisTest,
    ::testing::Combine(::testing::Values(30, 120, 500),
                       ::testing::Values(3, 5),
                       ::testing::Values(1, 2)));

class LubySyncTest : public ::testing::TestWithParam<int> {};

TEST_P(LubySyncTest, MessagePassingEngineProducesMis) {
  Rng gen(static_cast<std::uint64_t>(GetParam()) * 71 + 3);
  const Graph g = random_regular(150, 4, gen);
  RoundLedger ledger;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto mis = luby_mis_message_passing(g, rng, ledger, "sync-mis");
  EXPECT_TRUE(is_mis(g, mis));
  // Two rounds per iteration, O(log n) iterations w.h.p.
  EXPECT_GT(ledger.total(), 0);
  EXPECT_EQ(ledger.total() % 2, 0);
  EXPECT_LE(ledger.total(), 2 * 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LubySyncTest, ::testing::Range(1, 6));

TEST(LubySync, AgreesWithArrayEngineOnStructure) {
  // Both engines must satisfy the identical MIS contract on the same graph
  // (the sets themselves may differ — different randomness schedules).
  const Graph g = grid_graph(10, 10, true);
  RoundLedger l1, l2;
  Rng r1(5), r2(5);
  const auto a = luby_mis(g, r1, l1, "mis");
  const auto b = luby_mis_message_passing(g, r2, l2, "mis");
  EXPECT_TRUE(is_mis(g, a));
  EXPECT_TRUE(is_mis(g, b));
}

TEST(Mis, EdgeCases) {
  // Empty adjacency: everything joins.
  const Graph g = Graph::from_edges(4, std::vector<Edge>{});
  RoundLedger ledger;
  Rng rng(1);
  const auto mis = luby_mis(g, rng, ledger, "mis");
  EXPECT_TRUE(is_mis(g, mis));
  for (int v = 0; v < 4; ++v) EXPECT_TRUE(mis[v]);

  // Clique: exactly one joins.
  const Graph k = clique_graph(6);
  Rng rng2(2);
  RoundLedger l2;
  const auto km = luby_mis(k, rng2, l2, "mis");
  EXPECT_TRUE(is_mis(k, km));
  EXPECT_EQ(std::count(km.begin(), km.end(), true), 1);
}

TEST(Mis, VerifierRejectsBadSets) {
  const Graph g = path_graph(4);
  EXPECT_FALSE(is_mis(g, {true, true, false, false}));   // not independent
  EXPECT_FALSE(is_mis(g, {true, false, false, false}));  // not maximal
  EXPECT_TRUE(is_mis(g, {true, false, true, false}));
  EXPECT_TRUE(is_mis(g, {false, true, false, true}));
}

// luby_mis_over_sets against its oracle, luby_mis on the built virtual
// graph: the same MIS, the same ledger (total and per-phase breakdown) and
// the same Rng stream afterwards, for 3 seeds, in LOCAL and CONGEST(64),
// serially, on a pool of 4 and on a salted pool of 4. Returns the serial
// seed-1 LOCAL MIS.
std::vector<bool> expect_matches_virtual_graph(
    const Graph& g, const std::vector<std::vector<int>>& sets,
    int rounds_per_step, const std::string& label) {
  using Breakdown = std::vector<std::pair<std::string, std::int64_t>>;
  const auto breakdown = [](const RoundLedger& ledger) {
    Breakdown out;
    for (const auto& p : ledger.breakdown()) out.emplace_back(p.phase, p.rounds);
    return out;
  };
  const Graph virt = build_dcc_virtual_graph(g, sets);
  ThreadPool pool(4);
  ThreadPool salted_pool(4);
  salted_pool.set_perturb_salt(0x5e75);
  const std::pair<const char*, ThreadPool*> engines[] = {
      {"serial", nullptr}, {"pool of 4", &pool}, {"salted pool of 4", &salted_pool}};
  std::vector<bool> first;
  for (std::uint64_t seed : {1, 2, 3}) {
    for (std::int64_t bits : {0, 64}) {
      RoundLedger oracle_ledger;
      oracle_ledger.set_congest_bits(bits);
      Rng oracle_rng(seed);
      const auto expected = luby_mis(virt, oracle_rng, oracle_ledger, "gdcc",
                                     rounds_per_step);
      EXPECT_TRUE(is_mis(virt, expected)) << label;
      for (const auto& [engine, engine_pool] : engines) {
        const std::string where = label + " seed=" + std::to_string(seed) +
                                  " B=" + std::to_string(bits) + " " + engine;
        RoundLedger ledger;
        ledger.set_congest_bits(bits);
        Rng rng(seed);
        const auto got = luby_mis_over_sets(g, sets, rng, ledger, "gdcc",
                                            rounds_per_step, engine_pool);
        EXPECT_EQ(got, expected) << where;
        EXPECT_EQ(ledger.total(), oracle_ledger.total()) << where;
        EXPECT_EQ(breakdown(ledger), breakdown(oracle_ledger)) << where;
        Rng oracle_after = oracle_rng;
        EXPECT_EQ(rng.next_u64(), oracle_after.next_u64()) << where;
        if (first.empty()) first = got;
      }
    }
  }
  return first;
}

TEST(LubyOverSets, MatchesVirtualGraphOnPhaseOneDccs) {
  struct Workload {
    std::string name;
    Graph g;
  };
  std::vector<Workload> graphs;
  for (auto& w : generator_zoo()) graphs.push_back({w.name, std::move(w.graph)});
  graphs.push_back(
      {"torus-40-scrambled", test_support::scrambled_torus(40, 40, 5)});
  Rng pa_rng(29);
  graphs.push_back(
      {"powerlaw-2000-3", preferential_attachment(2000, 3, pa_rng)});
  for (const auto& [name, g] : graphs) {
    RoundLedger ledger;
    const DccDetection det = detect_dccs(g, 2, ledger, "dcc");
    expect_matches_virtual_graph(g, det.dccs, 2 * det.max_dcc_radius + 1,
                                 name);
  }
}

TEST(LubyOverSets, HandBuiltSets) {
  const Graph path = path_graph(10);
  const auto count = [](const std::vector<bool>& in_set) {
    return std::count(in_set.begin(), in_set.end(), true);
  };
  // Two sets sharing vertex 2: exactly one joins.
  EXPECT_EQ(count(expect_matches_virtual_graph(path, {{0, 1, 2}, {2, 3}}, 3,
                                               "sharing")),
            1);
  // Disjoint, but the path edge 1-2 joins them: exactly one joins.
  EXPECT_EQ(count(expect_matches_virtual_graph(path, {{0, 1}, {2, 3}}, 3,
                                               "edge-joined")),
            1);
  // Far apart: both join.
  EXPECT_EQ(count(expect_matches_virtual_graph(path, {{0, 1}, {7, 8}}, 3,
                                               "far-apart")),
            2);
  // A single set joins alone, in one iteration of two message rounds.
  RoundLedger ledger;
  Rng rng(4);
  EXPECT_EQ(luby_mis_over_sets(path, {{3, 4, 5}}, rng, ledger, "gdcc", 3),
            std::vector<bool>{true});
  EXPECT_EQ(ledger.total(), 2 * 3);
  expect_matches_virtual_graph(path, {{3, 4, 5}}, 3, "single");
  // No sets: nothing to run, nothing charged.
  RoundLedger empty_ledger;
  EXPECT_TRUE(luby_mis_over_sets(path, {}, rng, empty_ledger, "gdcc").empty());
  EXPECT_EQ(empty_ledger.total(), 0);
  // Phase (6)'s objects: singleton free nodes first, then the DCCs, some
  // of which contain those nodes or their neighbors.
  const Graph torus = grid_graph(6, 6, true);
  RoundLedger det_ledger;
  const DccDetection det = detect_dccs(torus, 2, det_ledger, "dcc");
  std::vector<std::vector<int>> objects;
  for (int v = 0; v < torus.num_vertices(); v += 5) objects.push_back({v});
  objects.insert(objects.end(), det.dccs.begin(), det.dccs.end());
  expect_matches_virtual_graph(torus, objects, 2 * det.max_dcc_radius + 1,
                               "singletons-and-dccs");
}

class RulingSetTest
    : public ::testing::TestWithParam<std::tuple<int, RulingSetEngine>> {};

TEST_P(RulingSetTest, ContractHolds) {
  const auto [alpha, engine] = GetParam();
  Rng gen(99);
  const Graph g = random_graph_max_degree(400, 5, 1.6, gen);
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  RoundLedger ledger;
  Rng rng(123);
  const auto m = ruling_set(g, all, alpha, engine, &rng, ledger, "rs");
  EXPECT_FALSE(m.empty());
  const int beta =
      (alpha - 1) *
      ruling_set_cover_radius(g.num_vertices(), engine);
  EXPECT_TRUE(is_ruling_set(g, all, m, alpha, std::max(1, beta)));
  EXPECT_GT(ledger.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RulingSetTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(RulingSetEngine::kDeterministic,
                                         RulingSetEngine::kRandomized)));

TEST(RulingSet, AglpBitwiseCrossValidation) {
  // The literal AGLP bitwise algorithm (on the materialized power graph)
  // must satisfy its (alpha, (alpha-1) * ceil(log2 n)) contract; the default
  // deterministic engine charges this algorithm's price.
  Rng gen(101);
  const Graph g = random_graph_max_degree(150, 4, 1.5, gen);
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  for (int alpha : {2, 3}) {
    RoundLedger l_aglp, l_def;
    const auto m_aglp =
        ruling_set(g, all, alpha, RulingSetEngine::kDeterministicAglpBitwise,
                   nullptr, l_aglp, "rs");
    const auto m_def = ruling_set(g, all, alpha,
                                  RulingSetEngine::kDeterministic, nullptr,
                                  l_def, "rs");
    const int beta_aglp =
        (alpha - 1) * ruling_set_cover_radius(
                          g.num_vertices(),
                          RulingSetEngine::kDeterministicAglpBitwise);
    EXPECT_TRUE(is_ruling_set(g, all, m_aglp, alpha, beta_aglp));
    EXPECT_TRUE(is_ruling_set(g, all, m_def, alpha, std::max(1, alpha - 1)));
    // Identical round charging model.
    EXPECT_EQ(l_aglp.total(), l_def.total());
  }
}

TEST(RulingSet, SubsetVariant) {
  Rng gen(7);
  const Graph g = grid_graph(12, 12, true);
  std::vector<int> subset;
  for (int v = 0; v < g.num_vertices(); v += 3) subset.push_back(v);
  RoundLedger ledger;
  Rng rng(8);
  const auto m = ruling_set(g, subset, 4, RulingSetEngine::kRandomized, &rng,
                            ledger, "rs");
  EXPECT_TRUE(is_ruling_set(g, subset, m, 4, 3));
  // Ruling set members come from the subset.
  for (int v : m) EXPECT_EQ(v % 3, 0);
}

TEST(RulingSet, AlphaOneReturnsSubset) {
  const Graph g = path_graph(5);
  RoundLedger ledger;
  const auto m = ruling_set(g, {1, 3}, 1, RulingSetEngine::kDeterministic,
                            nullptr, ledger, "rs");
  EXPECT_EQ(m, (std::vector<int>{1, 3}));
}

TEST(RulingSet, EmptySubset) {
  const Graph g = path_graph(5);
  RoundLedger ledger;
  EXPECT_TRUE(ruling_set(g, {}, 3, RulingSetEngine::kDeterministic, nullptr,
                         ledger, "rs")
                  .empty());
}

TEST(RulingSet, DeterministicIsDeterministic) {
  Rng gen(11);
  const Graph g = random_graph_max_degree(200, 4, 1.5, gen);
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) all[static_cast<std::size_t>(v)] = v;
  RoundLedger l1, l2;
  const auto a = ruling_set(g, all, 3, RulingSetEngine::kDeterministic,
                            nullptr, l1, "rs");
  const auto b = ruling_set(g, all, 3, RulingSetEngine::kDeterministic,
                            nullptr, l2, "rs");
  EXPECT_EQ(a, b);
  EXPECT_EQ(l1.total(), l2.total());
}

// The packing contract (mis/packing.h) over the generator zoo: the picks
// ascend without repeats, are pairwise at distance >= alpha, and cover every
// subset member within alpha-1.
TEST(Packing, ContractOverGeneratorZoo) {
  Rng gen(3);
  std::vector<std::pair<const char*, Graph>> zoo;
  zoo.emplace_back("regular", random_regular(400, 5, gen));
  zoo.emplace_back("sparse", random_graph_max_degree(300, 6, 1.7, gen));
  zoo.emplace_back("torus", grid_graph(18, 18, true));
  zoo.emplace_back("gallai", random_gallai_tree(300, 4, gen));
  zoo.emplace_back("cactus", triangle_cactus(250));
  zoo.emplace_back("clique-ring", clique_ring(12, 4));
  zoo.emplace_back("hypercube", hypercube_graph(7));
  zoo.emplace_back("tree", random_tree(300, 5, gen));

  for (const auto& [name, g] : zoo) {
    std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
    for (int v = 0; v < g.num_vertices(); ++v) {
      all[static_cast<std::size_t>(v)] = v;
    }
    std::vector<int> strided;
    for (int v = 0; v < g.num_vertices(); v += 3) strided.push_back(v);
    for (const auto& subset : {all, strided}) {
      for (int alpha : {2, 3, 5}) {
        const auto out = greedy_alpha_packing(g, subset, alpha);
        const std::string label = std::string(name) + " alpha=" +
                                  std::to_string(alpha) + " |S|=" +
                                  std::to_string(subset.size());
        EXPECT_TRUE(std::adjacent_find(out.begin(), out.end(),
                                       std::greater_equal<int>()) ==
                    out.end())
            << label << ": not ascending and deduplicated";
        EXPECT_TRUE(is_ruling_set(g, subset, out, alpha, alpha - 1)) << label;
      }
    }
  }
}

TEST(Packing, EdgeCases) {
  const Graph p = path_graph(6);
  EXPECT_TRUE(greedy_alpha_packing(p, {}, 3).empty());
  // alpha = 1: every distinct subset member qualifies, returned sorted.
  EXPECT_EQ(greedy_alpha_packing(p, {4, 0, 2}, 1),
            (std::vector<int>{0, 2, 4}));
  // Duplicate subset entries collapse to one pick — for every alpha
  // (repeats are at distance 0, which would break the packing contract).
  EXPECT_EQ(greedy_alpha_packing(p, {2, 2, 2}, 2), (std::vector<int>{2}));
  EXPECT_EQ(greedy_alpha_packing(p, {2, 2}, 1), (std::vector<int>{2}));
  // Path, alpha = 3: greedy from id 0 picks every third vertex.
  std::vector<int> all{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(greedy_alpha_packing(p, all, 3), (std::vector<int>{0, 3}));
}

// The default deterministic ruling-set engine runs on the packing greedy:
// its output (and charge) must be thread-count invariant.
TEST(RulingSet, DeterministicEngineThreadCountInvariant) {
  Rng gen(21);
  const Graph g = random_graph_max_degree(400, 5, 1.6, gen);
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  for (int v = 0; v < g.num_vertices(); ++v) {
    all[static_cast<std::size_t>(v)] = v;
  }
  for (int alpha : {2, 4}) {
    RoundLedger l_serial;
    const auto serial = ruling_set(g, all, alpha,
                                   RulingSetEngine::kDeterministic, nullptr,
                                   l_serial, "rs");
    EXPECT_TRUE(is_ruling_set(g, all, serial, alpha, alpha - 1));
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      RoundLedger l_pool;
      const auto pooled = ruling_set(g, all, alpha,
                                     RulingSetEngine::kDeterministic, nullptr,
                                     l_pool, "rs", &pool);
      EXPECT_EQ(pooled, serial) << threads << " threads, alpha " << alpha;
      EXPECT_EQ(l_pool.total(), l_serial.total());
    }
  }
}

TEST(RulingSet, PowerGraphChargesMultiplier) {
  // One aux round over distance alpha-1 must charge alpha-1 base rounds.
  const Graph g = cycle_graph(40);
  std::vector<int> all(40);
  for (int v = 0; v < 40; ++v) all[static_cast<std::size_t>(v)] = v;
  RoundLedger l2, l5;
  Rng r1(3), r2(3);
  ruling_set(g, all, 2, RulingSetEngine::kRandomized, &r1, l2, "rs");
  ruling_set(g, all, 5, RulingSetEngine::kRandomized, &r2, l5, "rs");
  EXPECT_GT(l5.total(), l2.total());
}

}  // namespace
}  // namespace deltacol
