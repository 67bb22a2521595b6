// The LOCAL-model simulator: round ledger, synchronous engine, gather oracle.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "local/neighborhood.h"
#include "local/round_ledger.h"
#include "runtime/sync_engine.h"
#include "util/check.h"

namespace deltacol {
namespace {

TEST(RoundLedger, ChargesAndAggregates) {
  RoundLedger l;
  l.charge(3, "a");
  l.charge(2, "b");
  l.charge(4, "a");
  EXPECT_EQ(l.total(), 9);
  EXPECT_EQ(l.phase_total("a"), 7);
  EXPECT_EQ(l.phase_total("b"), 2);
  EXPECT_EQ(l.phase_total("missing"), 0);
  EXPECT_EQ(l.breakdown().size(), 2u);
  EXPECT_THROW(l.charge(-1, "x"), ContractViolation);
}

TEST(RoundLedger, MergeAndReset) {
  RoundLedger a, b;
  a.charge(1, "x");
  b.charge(2, "x");
  b.charge(3, "y");
  a.merge(b);
  EXPECT_EQ(a.total(), 6);
  EXPECT_EQ(a.phase_total("x"), 3);
  a.reset();
  EXPECT_EQ(a.total(), 0);
  EXPECT_TRUE(a.breakdown().empty());
}

TEST(RoundLedger, ReportMentionsPhases) {
  RoundLedger l;
  l.charge(5, "phase-one");
  const auto rep = l.report();
  EXPECT_NE(rep.find("phase-one"), std::string::npos);
  EXPECT_NE(rep.find("5"), std::string::npos);
}

// A flood-fill over the SyncEngine must compute BFS distances in exactly
// eccentricity(source) rounds — the definitional LOCAL-model behavior.
TEST(SyncEngine, FloodFillMatchesBfs) {
  const Graph g = grid_graph(5, 6, false);
  struct State {
    int dist = -1;
  };
  using Engine = SyncEngine<State, int>;
  const int rounds = eccentricity(g, 0);
  RoundLedger ledger;
  Engine eng(g, ledger, "flood");
  eng.state(0).dist = 0;
  for (int t = 0; t < rounds; ++t) {
    eng.round(
        [](int, const State& s, Engine::Ports& out) {
          if (s.dist < 0) return;
          for (int p = 0; p < out.size(); ++p) out.send(p, s.dist + 1);
        },
        [](int, State& s, const Engine::Inbox& inbox) {
          for (const auto& [from, d] : inbox) {
            if (s.dist < 0 || d < s.dist) s.dist = d;
          }
        });
  }
  const auto want = bfs_distances(g, 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(eng.state(v).dist, want[v]) << "vertex " << v;
  }
  EXPECT_EQ(ledger.total(), rounds);
}

// Messages only travel along edges, at most one per edge per round: a port
// is an index into g.neighbors(v), used at most once per round.
TEST(SyncEngine, RejectsRepeatedPort) {
  const Graph g = path_graph(4);
  using Engine = SyncEngine<int, int>;
  RoundLedger ledger;
  Engine eng(g, ledger, "bad");
  EXPECT_THROW(eng.round(
                   [](int v, const int&, Engine::Ports& out) {
                     out.send(0, 1);
                     if (v == 2) out.send(0, 2);  // port 0 again
                   },
                   [](int, int&, const Engine::Inbox&) {}),
               ContractViolation);
}

TEST(SyncEngine, RejectsOutOfRangePort) {
  const Graph g = path_graph(4);
  using Engine = SyncEngine<int, int>;
  for (int bad : {-1, 1}) {  // vertex 0 has exactly one port
    RoundLedger ledger;
    Engine eng(g, ledger, "bad");
    EXPECT_THROW(eng.round(
                     [bad](int v, const int&, Engine::Ports& out) {
                       if (v == 0) out.send(bad, 42);
                     },
                     [](int, int&, const Engine::Inbox&) {}),
                 ContractViolation)
        << "port " << bad;
  }
}

TEST(NeighborhoodOracle, ChargesGatherRadius) {
  const Graph g = cycle_graph(12);
  RoundLedger ledger;
  NeighborhoodOracle oracle(g, ledger);
  oracle.begin_gather(3, "gather");
  EXPECT_EQ(ledger.total(), 3);
  const auto sub = oracle.ball_subgraph(0, 3);
  EXPECT_EQ(sub.graph.num_vertices(), 7);  // 0, +-1, +-2, +-3
  // Radius above the gathered bound is a contract violation.
  EXPECT_THROW(oracle.ball_subgraph(0, 4), ContractViolation);
}

}  // namespace
}  // namespace deltacol
