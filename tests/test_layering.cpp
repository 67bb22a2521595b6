// The layering driver shared by every algorithm (paper Section 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coloring/linial.h"
#include "coloring/list_coloring.h"
#include "core/layering.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/traversal.h"
#include "runtime/thread_pool.h"
#include "test_support.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Layering, LayersAreDistances) {
  const Graph g = grid_graph(7, 7, false);
  const Layering l = build_layers(g, {24}, -1);  // center
  const auto d = bfs_distances(g, 24);
  for (int v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(l.layer[v], d[v]);
  EXPECT_EQ(l.num_layers, 7);  // distances 0..6
  std::size_t total = 0;
  for (const auto& m : l.members) total += m.size();
  EXPECT_EQ(total, 49u);
}

TEST(Layering, DepthCapLeavesRemainder) {
  const Graph g = path_graph(10);
  const Layering l = build_layers(g, {0}, 3);
  EXPECT_EQ(l.num_layers, 4);
  EXPECT_EQ(l.layer[3], 3);
  EXPECT_EQ(l.layer[4], kNoLayer);
}

TEST(Layering, RestrictedBfsBlocksDisallowed) {
  const Graph g = path_graph(7);
  std::vector<bool> allowed(7, true);
  allowed[4] = false;
  const Layering l = build_layers_restricted(g, {2}, -1, allowed);
  EXPECT_EQ(l.layer[3], 1);
  EXPECT_EQ(l.layer[4], kNoLayer);
  EXPECT_EQ(l.layer[5], kNoLayer);  // cut off behind 4
  EXPECT_EQ(l.layer[0], 2);
}

TEST(Layering, MultipleBaseVertices) {
  const Graph g = path_graph(9);
  const Layering l = build_layers(g, {0, 8}, -1);
  EXPECT_EQ(l.layer[4], 4);
  EXPECT_EQ(l.layer[6], 2);
  EXPECT_EQ(l.members[0].size(), 2u);
}

class LayerColoringTest : public ::testing::TestWithParam<int> {};

TEST_P(LayerColoringTest, ReverseColoringLeavesOnlyBaseUncolored) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = random_regular(300, 4, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  // Base = a couple of scattered vertices.
  const std::vector<int> base{0, 100, 200};
  const Layering l = build_layers(g, base, -1);
  Coloring c(300, kUncolored);
  RoundLedger ledger;
  Rng rng2(17);
  color_layers_in_reverse(g, l, 4, lin.coloring, lin.num_colors,
                          ListEngine::kDeterministic, &rng2, c, ledger, "t");
  // Everything except (at most) the base is colored, properly.
  EXPECT_TRUE(is_proper_partial(g, c));
  for (int v = 0; v < 300; ++v) {
    if (l.layer[v] >= 1) {
      EXPECT_NE(c[v], kUncolored) << v;
    }
  }
  for (int v : base) EXPECT_EQ(c[v], kUncolored);
  EXPECT_GT(ledger.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayerColoringTest, ::testing::Values(1, 2, 3));

TEST(LayerColoring, RandomizedEngineToo) {
  Rng rng(4);
  const Graph g = random_regular(200, 4, rng);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  const Layering l = build_layers(g, {0}, -1);
  Coloring c(200, kUncolored);
  RoundLedger ledger;
  Rng rng2(5);
  color_layers_in_reverse(g, l, 4, lin.coloring, lin.num_colors,
                          ListEngine::kRandomized, &rng2, c, ledger, "t");
  EXPECT_TRUE(is_proper_partial(g, c));
  EXPECT_EQ(count_uncolored(c), 1);  // just the base vertex
}

TEST(LayerColoring, VertexSetInstanceSkipsColored) {
  const Graph g = cycle_graph(6);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  Coloring c(6, kUncolored);
  c[0] = 0;
  RoundLedger ledger;
  color_vertex_set_as_list_instance(g, {0, 1, 2, 3, 4, 5},
                                    [](int) { return 3; }, lin.coloring,
                                    lin.num_colors, ListEngine::kDeterministic,
                                    nullptr, c, ledger, "t");
  EXPECT_EQ(c[0], 0);
  EXPECT_TRUE(is_proper_complete(g, c));
}

// The reference for the in-place layers: per layer, the induced subgraph,
// free_colors lists and a list-based engine on the restricted schedule.

// First color in v's list not used by a colored neighbor; kUncolored if none.
Color first_feasible(const Graph& g, const ListAssignment& lists,
                     const Coloring& c, int v) {
  for (Color x : lists[static_cast<std::size_t>(v)]) {
    bool ok = true;
    for (int u : g.neighbors(v)) {
      if (c[u] == x) {
        ok = false;
        break;
      }
    }
    if (ok) return x;
  }
  return kUncolored;
}

// Colors every vertex with out[v] == kUncolored, one schedule class per
// round, each taking its first feasible list color.
void det_list_coloring(const Graph& g, const ListAssignment& lists,
                       const Coloring& schedule, int num_schedule_colors,
                       Coloring& out, RoundLedger& ledger, ThreadPool* pool) {
  ASSERT_TRUE(is_proper_with_palette(g, schedule, num_schedule_colors));
  std::vector<int> members;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (out[static_cast<std::size_t>(v)] == kUncolored) members.push_back(v);
  }
  sweep_schedule_classes(
      members, schedule, num_schedule_colors,
      [&](int v) {
        out[static_cast<std::size_t>(v)] = first_feasible(g, lists, out, v);
      },
      ledger, "t", pool);
}

// Trial coloring: every uncolored vertex proposes a random feasible list
// color (draws serial, in vertex order) and keeps it unless an uncolored
// neighbor proposed the same; after 4 ceil(log2 n) + 16 rounds the det
// engine completes the rest.
void rand_list_coloring(const Graph& g, const ListAssignment& lists,
                        const Coloring& schedule, int num_schedule_colors,
                        Rng& rng, Coloring& out, RoundLedger& ledger,
                        ThreadPool* pool) {
  const int n = g.num_vertices();
  std::vector<int> active;
  for (int v = 0; v < n; ++v) {
    if (out[static_cast<std::size_t>(v)] == kUncolored) active.push_back(v);
  }
  const int max_rounds =
      4 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))) + 16;
  std::vector<Color> proposal(static_cast<std::size_t>(n), kUncolored);
  for (int round = 0; round < max_rounds && !active.empty(); ++round) {
    for (int v : active) {
      std::vector<Color> feas;
      for (Color x : lists[static_cast<std::size_t>(v)]) {
        bool ok = true;
        for (int u : g.neighbors(v)) {
          if (out[static_cast<std::size_t>(u)] == x) ok = false;
        }
        if (ok) feas.push_back(x);
      }
      ASSERT_FALSE(feas.empty());
      proposal[static_cast<std::size_t>(v)] =
          feas[static_cast<std::size_t>(rng.next_below(feas.size()))];
    }
    // Resolve against the frozen proposals, then commit the winners.
    std::vector<int> still_active, won;
    for (int v : active) {
      bool clash = false;
      for (int u : g.neighbors(v)) {
        if (out[static_cast<std::size_t>(u)] == kUncolored &&
            proposal[static_cast<std::size_t>(u)] ==
                proposal[static_cast<std::size_t>(v)]) {
          clash = true;
        }
      }
      (clash ? still_active : won).push_back(v);
    }
    for (int v : won) {
      out[static_cast<std::size_t>(v)] = proposal[static_cast<std::size_t>(v)];
    }
    for (int v : active) proposal[static_cast<std::size_t>(v)] = kUncolored;
    active = std::move(still_active);
    ledger.charge(1, "t");
  }
  if (!active.empty()) {
    det_list_coloring(g, lists, schedule, num_schedule_colors, out, ledger,
                      pool);
  }
}

void color_layers_through_lists(const Graph& g, const Layering& layering,
                                int delta, const Coloring& schedule,
                                int schedule_colors, ListEngine engine,
                                Rng& rng, Coloring& c, RoundLedger& ledger,
                                ThreadPool* pool) {
  for (int i = layering.num_layers - 1; i >= 1; --i) {
    std::vector<int> todo;
    for (int v : layering.members[static_cast<std::size_t>(i)]) {
      if (c[static_cast<std::size_t>(v)] == kUncolored) todo.push_back(v);
    }
    if (todo.empty()) continue;
    const auto sub = induced_subgraph(g, todo);
    const int k = sub.graph.num_vertices();
    ListAssignment lists(static_cast<std::size_t>(k));
    Coloring sub_schedule(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      const int p = sub.to_parent[static_cast<std::size_t>(j)];
      lists[static_cast<std::size_t>(j)] = free_colors(g, c, p, delta);
      ASSERT_GT(lists[static_cast<std::size_t>(j)].size(),
                static_cast<std::size_t>(sub.graph.degree(j)))
          << "layer " << i;
      sub_schedule[static_cast<std::size_t>(j)] =
          schedule[static_cast<std::size_t>(p)];
    }
    Coloring sub_c(static_cast<std::size_t>(k), kUncolored);
    if (engine == ListEngine::kDeterministic) {
      det_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, sub_c,
                        ledger, pool);
    } else {
      rand_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, rng,
                         sub_c, ledger, pool);
    }
    for (int j = 0; j < k; ++j) {
      c[static_cast<std::size_t>(sub.to_parent[static_cast<std::size_t>(j)])] =
          sub_c[static_cast<std::size_t>(j)];
    }
  }
}

TEST(LayerColoring, InPlaceMatchesListInstance) {
  std::vector<NamedWorkload> graphs = generator_zoo();
  Rng rng(37);
  graphs.push_back({"pa-2000-3", preferential_attachment(2000, 3, rng)});
  graphs.push_back(
      {"torus-40-scrambled", test_support::scrambled_torus(40, 40, 5)});
  // Instances of at most 2 of 20,001 vertices: membership by binary search.
  graphs.push_back({"cycle-20001", cycle_graph(20001)});

  ThreadPool pool(4);
  for (const auto& w : graphs) {
    const Graph& g = w.graph;
    const int n = g.num_vertices();
    const int delta = g.max_degree();
    RoundLedger tmp;
    const LinialResult sched = delta_plus_one_schedule(g, tmp);
    const Layering layering = build_layers(g, {0, n / 3, 2 * n / 3}, -1);
    for (const auto engine :
         {ListEngine::kDeterministic, ListEngine::kRandomized}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const std::string shape =
            std::string(engine == ListEngine::kDeterministic ? "det" : "rand") +
            (p == nullptr ? " serial" : " pool of 4");
        Coloring in_place(static_cast<std::size_t>(n), kUncolored);
        Coloring listed = in_place;
        RoundLedger in_place_ledger, listed_ledger;
        Rng in_place_rng(41), listed_rng(41);
        color_layers_in_reverse(g, layering, delta, sched.coloring,
                                sched.num_colors, engine, &in_place_rng,
                                in_place, in_place_ledger, "t", p);
        color_layers_through_lists(g, layering, delta, sched.coloring,
                                   sched.num_colors, engine, listed_rng, listed,
                                   listed_ledger, p);
        EXPECT_EQ(in_place, listed) << w.name << " " << shape;
        EXPECT_EQ(in_place_ledger.total(), listed_ledger.total())
            << w.name << " " << shape;
        EXPECT_GT(in_place_ledger.total(), 0) << w.name << " " << shape;
      }
    }
  }
}

// The ContractViolation message f throws, or "" if it throws none.
std::string violation(const std::function<void()>& f) {
  try {
    f();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

// Vertices base, base + 1, base + 2 of a path of n vertices as one
// instance: below n = 3072 membership is a dense mark, above it a binary
// search.
std::string instance_violation(int n, int base, int delta,
                               const Coloring& schedule_head,
                               int schedule_colors, ListEngine engine) {
  const Graph g = path_graph(n);
  Coloring schedule(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) schedule[static_cast<std::size_t>(v)] = v % 2;
  for (int i = 0; i < 3; ++i) {
    schedule[static_cast<std::size_t>(base + i)] =
        schedule_head[static_cast<std::size_t>(i)];
  }
  Coloring c(static_cast<std::size_t>(n), kUncolored);
  RoundLedger ledger;
  Rng rng(3);
  return violation([&] {
    color_vertex_set_as_list_instance(
        g, {base, base + 1, base + 2}, [delta](int) { return delta; },
        schedule, schedule_colors, engine, &rng, c, ledger, "t");
  });
}

TEST(LayerColoring, InstanceWithoutDegPlusOneThrows) {
  // The middle vertex has 2 instance neighbors and only 2 colors.
  for (const auto engine :
       {ListEngine::kDeterministic, ListEngine::kRandomized}) {
    for (const auto& [n, base] : {std::pair{3, 0}, std::pair{5000, 10}}) {
      EXPECT_NE(instance_violation(n, base, 2, {0, 1, 0}, 2, engine)
                    .find("(deg+1)-list instance 't' is not (deg+1)"),
                std::string::npos)
          << "n=" << n;
      // Checked before the schedule, which is improper here as well.
      EXPECT_NE(instance_violation(n, base, 2, {0, 0, 0}, 2, engine)
                    .find("(deg+1)-list instance 't' is not (deg+1)"),
                std::string::npos)
          << "n=" << n;
    }
  }
}

TEST(LayerColoring, InstanceWithoutLayersNamesItsPhase) {
  // An odd 5-cycle on palette 2 is no layer: each member has two member
  // neighbors and two colors, and the message names the instance.
  const Graph g = cycle_graph(5);
  const Coloring schedule{0, 1, 0, 1, 2};
  for (const auto engine :
       {ListEngine::kDeterministic, ListEngine::kRandomized}) {
    Coloring c(5, kUncolored);
    RoundLedger ledger;
    Rng rng(3);
    EXPECT_NE(violation([&] {
                color_vertex_set_as_list_instance(
                    g, {0, 1, 2, 3, 4}, [](int) { return 2; }, schedule, 3,
                    engine, &rng, c, ledger, "odd-cycle");
              }).find("(deg+1)-list instance 'odd-cycle' is not (deg+1)"),
              std::string::npos);
  }
}

TEST(LayerColoring, VertexOutOfRangeThrowsBeforeItIsRead) {
  const Graph g = path_graph(3);
  const Coloring schedule{0, 1, 0};
  for (const auto engine :
       {ListEngine::kDeterministic, ListEngine::kRandomized}) {
    for (const int bad : {-1, 3, 1 << 20}) {
      Coloring c(3, kUncolored);
      RoundLedger ledger;
      Rng rng(3);
      EXPECT_NE(violation([&] {
                  color_vertex_set_as_list_instance(
                      g, {0, bad}, [](int) { return 2; }, schedule, 2, engine,
                      &rng, c, ledger, "t");
                }).find("subgraph vertex out of range"),
                std::string::npos)
          << bad;
      EXPECT_EQ(c, Coloring(3, kUncolored));
    }
  }
}

TEST(LayerColoring, ScheduleImproperOnTheInstanceThrows) {
  for (const auto& [n, base] : {std::pair{3, 0}, std::pair{5000, 10}}) {
    const auto det = ListEngine::kDeterministic;
    for (const Coloring& head : {Coloring{0, 0, 1}, Coloring{0, 1, 2},
                                 Coloring{0, -1, 0}}) {
      EXPECT_NE(instance_violation(n, base, 3, head, 2, det)
                    .find("schedule must be a proper coloring"),
                std::string::npos)
          << "n=" << n << " head " << head[0] << head[1] << head[2];
    }
    EXPECT_EQ(instance_violation(n, base, 3, {1, 0, 1}, 2, det), "")
        << "n=" << n;
  }
  // Only the instance's own edges count: a schedule conflict with a vertex
  // outside it is no violation.
  const Graph g = path_graph(4);
  Coloring c(4, kUncolored);
  RoundLedger ledger;
  color_vertex_set_as_list_instance(g, {0, 1}, [](int) { return 3; },
                                    {0, 1, 1, 0}, 2, ListEngine::kDeterministic,
                                    nullptr, c, ledger, "t");
  EXPECT_TRUE(is_proper_partial(g, c));
  EXPECT_EQ(count_uncolored(c), 2);
  EXPECT_EQ(ledger.total(), 2);  // one round per schedule class
}

}  // namespace
}  // namespace deltacol
