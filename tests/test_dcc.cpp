// Degree-choosable component machinery (Definitions 6-9, DESIGN.md §4).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "dcc/dcc.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/structure.h"
#include "graph/traversal.h"
#include "local/round_ledger.h"
#include "runtime/thread_pool.h"
#include "test_support.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Dcc, IsDccShapes) {
  EXPECT_TRUE(is_dcc(cycle_graph(6)));           // even cycle
  EXPECT_FALSE(is_dcc(cycle_graph(7)));          // odd cycle
  EXPECT_FALSE(is_dcc(clique_graph(5)));         // clique
  EXPECT_TRUE(is_dcc(theta_graph(1, 2, 3)));     // theta
  EXPECT_TRUE(is_dcc(complete_bipartite(2, 3))); // K_{2,3}
  EXPECT_FALSE(is_dcc(path_graph(4)));           // not 2-connected
  EXPECT_FALSE(is_dcc(star_graph(4)));
  EXPECT_TRUE(is_dcc(hypercube_graph(3)));
  EXPECT_TRUE(is_dcc(petersen_graph()));
  EXPECT_TRUE(is_dcc(clique_ring(3, 4)));
  // Triangle with pendant: not 2-connected.
  EXPECT_FALSE(is_dcc(Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}})));
}

TEST(Dcc, DccBlocksAgreeWithGallaiTest) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_graph_max_degree(30, 4, 1.4, rng);
    EXPECT_EQ(dcc_blocks(g).empty(), is_gallai_tree(g)) << "trial " << trial;
  }
}

TEST(Dcc, BallContainsDcc) {
  // In a big even cycle, radius must reach halfway to see the cycle.
  const Graph g = cycle_graph(12);
  EXPECT_FALSE(ball_contains_dcc(g, 0, 5));
  EXPECT_TRUE(ball_contains_dcc(g, 0, 6));
  // Trees never contain DCCs.
  Rng rng(2);
  const Graph t = random_tree(100, 4, rng);
  for (int v = 0; v < 100; v += 7) EXPECT_FALSE(ball_contains_dcc(t, v, 5));
  // Gallai trees never contain DCCs at any radius.
  const Graph gt = random_gallai_tree(80, 4, rng);
  for (int v = 0; v < gt.num_vertices(); v += 9) {
    EXPECT_FALSE(ball_contains_dcc(gt, v, 4));
  }
}

TEST(Dcc, DetectInvariants) {
  Rng rng(77);
  const Graph g = random_regular(300, 4, rng);
  RoundLedger ledger;
  const auto det = detect_dccs(g, 2, ledger, "dcc");
  EXPECT_EQ(ledger.total(), 3);  // r + 1
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(det.has_dcc[v], ball_contains_dcc(g, v, 2)) << "vertex " << v;
    EXPECT_EQ(det.has_dcc[v], det.selected[v] != -1);
  }
  std::set<std::vector<int>> unique(det.dccs.begin(), det.dccs.end());
  EXPECT_EQ(unique.size(), det.dccs.size());
  for (const auto& d : det.dccs) {
    const auto sub = induced_subgraph(g, d);
    EXPECT_TRUE(is_dcc(sub.graph));
    EXPECT_LE(graph_radius(sub.graph), det.max_dcc_radius);
  }
}

TEST(Dcc, SelectionIsDeterministic) {
  Rng rng(78);
  const Graph g = random_regular(200, 4, rng);
  RoundLedger l1, l2;
  const auto a = detect_dccs(g, 2, l1, "dcc");
  const auto b = detect_dccs(g, 2, l2, "dcc");
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.dccs, b.dccs);
}

TEST(Dcc, VirtualGraphEdges) {
  // Two DCC vertex sets sharing a vertex => edge; far apart => none.
  const Graph g = path_graph(10);  // host only provides adjacency
  const std::vector<std::vector<int>> dccs{{0, 1, 2}, {2, 3}, {7, 8}};
  const Graph vg = build_dcc_virtual_graph(g, dccs);
  EXPECT_EQ(vg.num_vertices(), 3);
  EXPECT_TRUE(vg.has_edge(0, 1));   // share vertex 2
  EXPECT_FALSE(vg.has_edge(0, 2));  // distance > 1
  EXPECT_FALSE(vg.has_edge(1, 2));  // 3-7 not adjacent
  // Adjacent-but-disjoint sets are connected too.
  const std::vector<std::vector<int>> dccs2{{0, 1}, {2, 3}};
  const Graph vg2 = build_dcc_virtual_graph(g, dccs2);
  EXPECT_TRUE(vg2.has_edge(0, 1));  // edge 1-2 of the path joins them
}

TEST(Dcc, TorusBallsSeeFourCycles) {
  const Graph g = grid_graph(8, 8, true);
  RoundLedger ledger;
  const auto det = detect_dccs(g, 2, ledger, "dcc");
  // Every torus vertex lies on a 4-cycle: all balls contain DCCs.
  for (int v = 0; v < g.num_vertices(); ++v) EXPECT_TRUE(det.has_dcc[v]);
}

// Every observable of a DccDetection folded through FNV-1a.
std::uint64_t detection_fingerprint(const DccDetection& d) {
  using test_support::fnv1a;
  std::uint64_t h = test_support::kFnvOffset;
  for (bool b : d.has_dcc) h = fnv1a(h, b ? 1u : 0u);
  for (int s : d.selected) h = fnv1a(h, static_cast<std::uint64_t>(s));
  h = fnv1a(h, d.dccs.size());
  for (const auto& set : d.dccs) {
    h = fnv1a(h, set.size());
    for (int x : set) h = fnv1a(h, static_cast<std::uint64_t>(x));
  }
  return fnv1a(h, static_cast<std::uint64_t>(d.max_dcc_radius));
}

struct DetectionGolden {
  const char* graph;
  int r;
  std::uint64_t hash;
};

// Frozen Phase (1) output (has_dcc, selected, dccs, max_dcc_radius) per
// graph and radius. Any change to the ball kernel must land on these hashes
// serially, on a pool and on a salted pool (whose jittered chunk counts move
// every per-chunk buffer boundary). On the power-law rows the hubs lie in
// many balls, so deduplication and radii see large, overlapping sets.
constexpr DetectionGolden kDetectionGoldens[] = {
    {"regular-500-6", 1, 0xf5693a9f9b2959c5ULL},
    {"regular-500-6", 2, 0xdc785d868c7c4620ULL},
    {"regular-500-6", 3, 0xfd43fa4a4ce0f71cULL},
    {"regular-500-6", 4, 0x3b7ac9854cf625dfULL},
    {"regular-500-6", 5, 0x3b7ac9854cf625dfULL},
    {"gallai-400-4", 1, 0x303007c9cc90f1e5ULL},
    {"gallai-400-4", 2, 0x303007c9cc90f1e5ULL},
    {"gallai-400-4", 3, 0x303007c9cc90f1e5ULL},
    {"gallai-400-4", 4, 0x303007c9cc90f1e5ULL},
    {"gallai-400-4", 5, 0x303007c9cc90f1e5ULL},
    {"sparse-400-6", 1, 0x303007c9cc90f1e5ULL},
    {"sparse-400-6", 2, 0xa3731f181ba310caULL},
    {"sparse-400-6", 3, 0xc948c7d78a5cf262ULL},
    {"sparse-400-6", 4, 0xbf1e884b6ca66cf1ULL},
    {"sparse-400-6", 5, 0xa13dfb1707ec6127ULL},
    {"3-components", 1, 0xf63b2af5fe587b1aULL},
    {"3-components", 2, 0x8fed43c90976dc1eULL},
    {"3-components", 3, 0xe4812afd73f1b56bULL},
    {"3-components", 4, 0x6a05d1d556d8e0a9ULL},
    {"3-components", 5, 0xcf1211c8698ba5a7ULL},
    {"triangle-cactus", 1, 0x4e2c36fa0b58043dULL},
    {"triangle-cactus", 2, 0x4e2c36fa0b58043dULL},
    {"triangle-cactus", 3, 0x4e2c36fa0b58043dULL},
    {"triangle-cactus", 4, 0x4e2c36fa0b58043dULL},
    {"triangle-cactus", 5, 0x4e2c36fa0b58043dULL},
    {"torus-40-scrambled", 1, 0xf55ce4731ce4f665ULL},
    {"torus-40-scrambled", 2, 0x092a5e0ea91344e9ULL},
    {"torus-40-scrambled", 3, 0x092a5e0ea91344e9ULL},
    {"torus-40-scrambled", 4, 0x092a5e0ea91344e9ULL},
    {"torus-40-scrambled", 5, 0x092a5e0ea91344e9ULL},
    {"regular-3000-8", 1, 0xc953c182a7f6844eULL},
    {"regular-3000-8", 2, 0xcf4cd94e81a0114dULL},
    {"regular-3000-8", 3, 0xadc5db5242a56a0aULL},
    {"powerlaw-2000-3", 1, 0x31c339a4c3706a9aULL},
    {"powerlaw-2000-3", 2, 0x01c9e04ad76d352cULL},
    {"powerlaw-2000-3", 3, 0x747953608eae3480ULL},
};

TEST(Dcc, DetectionLandsOnFrozenHashes) {
  struct Workload {
    std::string name;
    Graph g;
  };
  std::vector<Workload> graphs;
  for (auto& w : generator_zoo()) {
    graphs.push_back({w.name, std::move(w.graph)});
  }
  graphs.push_back(
      {"torus-40-scrambled", test_support::scrambled_torus(40, 40, 5)});
  Rng rng(19);
  graphs.push_back({"regular-3000-8", random_regular(3000, 8, rng)});
  Rng pa_rng(29);
  graphs.push_back(
      {"powerlaw-2000-3", preferential_attachment(2000, 3, pa_rng)});

  ThreadPool pool(4);
  ThreadPool salted_pool(4);
  salted_pool.set_perturb_salt(0x5eed);
  for (const DetectionGolden& golden : kDetectionGoldens) {
    const Graph* g = nullptr;
    for (const auto& w : graphs) {
      if (w.name == golden.graph) g = &w.g;
    }
    ASSERT_NE(g, nullptr) << golden.graph;
    RoundLedger serial_ledger, pooled_ledger, salted_ledger;
    EXPECT_EQ(detection_fingerprint(
                  detect_dccs(*g, golden.r, serial_ledger, "dcc")),
              golden.hash)
        << golden.graph << " r=" << golden.r << " serial";
    EXPECT_EQ(detection_fingerprint(
                  detect_dccs(*g, golden.r, pooled_ledger, "dcc", &pool)),
              golden.hash)
        << golden.graph << " r=" << golden.r << " pool of 4";
    EXPECT_EQ(detection_fingerprint(detect_dccs(*g, golden.r, salted_ledger,
                                                "dcc", &salted_pool)),
              golden.hash)
        << golden.graph << " r=" << golden.r << " salted pool of 4";
  }
}

}  // namespace
}  // namespace deltacol
