// The frontier BFS's contract (graph/frontier_bfs.h):
//
//  * golden equivalence — distances, visit levels and ball contents match
//    the seed's queue-based reference implementations (reproduced below) on
//    the generator zoo;
//  * epoch reuse — one BfsScratch serves thousands of queries, across
//    graphs of different sizes, without a stale-visitation bug;
//  * thread-count invariance of the helpers that fan independent queries
//    out over the pool, one scratch per chunk (power_graph,
//    random_shift_decomposition).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <vector>

#include "decomp/network_decomposition.h"
#include "graph/frontier_bfs.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/traversal.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

// --- queue-based reference implementations (the seed's semantics) ---------

std::vector<int> ref_bfs_distances(const Graph& g, int source, int max_dist) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<int> q;
  dist[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    if (max_dist >= 0 && dist[static_cast<std::size_t>(u)] >= max_dist) continue;
    for (int w : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] == -1) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

std::vector<int> ref_multi_source(const Graph& g, const std::vector<int>& seeds,
                                  int max_dist) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<int> q;
  for (int s : seeds) {
    if (dist[static_cast<std::size_t>(s)] == 0) continue;
    dist[static_cast<std::size_t>(s)] = 0;
    q.push(s);
  }
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    if (max_dist >= 0 && dist[static_cast<std::size_t>(u)] >= max_dist) continue;
    for (int w : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] == -1) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

// Engine distances as a dense vector, for comparison against the reference.
void expect_matches_reference(const Graph& g, const BfsScratch& scratch,
                              const std::vector<int>& ref_dist,
                              const std::string& label) {
  std::size_t reached = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (ref_dist[static_cast<std::size_t>(v)] == -1) {
      EXPECT_FALSE(scratch.visited(v)) << label << " vertex " << v;
    } else {
      ASSERT_TRUE(scratch.visited(v)) << label << " vertex " << v;
      EXPECT_EQ(scratch.dist(v), ref_dist[static_cast<std::size_t>(v)])
          << label << " vertex " << v;
      ++reached;
    }
  }
  EXPECT_EQ(scratch.order().size(), reached) << label;
  // Levels partition the visit order by distance.
  std::size_t total = 0;
  for (int l = 0; l < scratch.num_levels(); ++l) {
    const auto lv = scratch.level(l);
    EXPECT_FALSE(lv.empty()) << label << " level " << l;
    total += lv.size();
    for (int v : lv) {
      EXPECT_EQ(ref_dist[static_cast<std::size_t>(v)], l)
          << label << " level " << l << " vertex " << v;
    }
  }
  EXPECT_EQ(total, reached) << label;
}

struct ZooEntry {
  const char* name;
  Graph graph;
};

std::vector<ZooEntry> generator_zoo() {
  Rng rng(2026);
  std::vector<ZooEntry> zoo;
  zoo.push_back({"path-60", path_graph(60)});
  zoo.push_back({"cycle-33", cycle_graph(33)});
  zoo.push_back({"grid-9x7", grid_graph(9, 7, false)});
  zoo.push_back({"torus-6x6", grid_graph(6, 6, true)});
  zoo.push_back({"hypercube-6", hypercube_graph(6)});
  zoo.push_back({"clique-9", clique_graph(9)});
  zoo.push_back({"kary-3-4", complete_kary_tree(3, 4)});
  zoo.push_back({"petersen", petersen_graph()});
  zoo.push_back({"regular-300-6", random_regular(300, 6, rng)});
  zoo.push_back({"maxdeg-250-5", random_graph_max_degree(250, 5, 1.4, rng)});
  zoo.push_back({"tree-200-4", random_tree(200, 4, rng)});
  zoo.push_back({"gallai-180-4", random_gallai_tree(180, 4, rng)});
  zoo.push_back({"disconnected",
                 disjoint_union(random_regular(80, 4, rng), path_graph(40))});
  return zoo;
}

TEST(FrontierBfs, GoldenSingleSourceOnZoo) {
  BfsScratch scratch;
  for (const auto& [name, g] : generator_zoo()) {
    for (int max_dist : {-1, 0, 1, 2, 3, 7}) {
      for (int v : {0, g.num_vertices() / 2, g.num_vertices() - 1}) {
        scratch.run(g, v, max_dist);
        expect_matches_reference(
            g, scratch, ref_bfs_distances(g, v, max_dist),
            std::string(name) + "/src=" + std::to_string(v) + "/r=" +
                std::to_string(max_dist));
      }
    }
  }
}

TEST(FrontierBfs, GoldenMultiSourceOnZoo) {
  BfsScratch scratch;
  Rng rng(7);
  for (const auto& [name, g] : generator_zoo()) {
    const int n = g.num_vertices();
    std::vector<int> seeds;
    for (int v = 0; v < n; ++v) {
      if (rng.next_bool(0.08)) seeds.push_back(v);
    }
    if (seeds.empty()) seeds.push_back(n - 1);
    // Duplicates and unsorted order must not matter.
    seeds.push_back(seeds.front());
    std::reverse(seeds.begin(), seeds.end());
    for (int max_dist : {-1, 2}) {
      scratch.run_multi(g, seeds, max_dist);
      expect_matches_reference(g, scratch, ref_multi_source(g, seeds, max_dist),
                               name);
    }
  }
}

TEST(FrontierBfs, ClassicApiStillMatchesReference) {
  // The rewritten traversal.h entry points agree with the references.
  for (const auto& [name, g] : generator_zoo()) {
    const int v = g.num_vertices() / 3;
    EXPECT_EQ(bfs_distances(g, v), ref_bfs_distances(g, v, -1)) << name;
    EXPECT_EQ(bfs_distances(g, v, 2), ref_bfs_distances(g, v, 2)) << name;
    const auto b = ball(g, v, 2);
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end())) << name;
    const auto dist = ref_bfs_distances(g, v, 2);
    std::vector<int> expected;
    for (int u = 0; u < g.num_vertices(); ++u) {
      if (dist[static_cast<std::size_t>(u)] != -1) expected.push_back(u);
    }
    EXPECT_EQ(b, expected) << name;
    const auto layers = bfs_layers(g, v, 3);
    ASSERT_EQ(layers.size(), 4u) << name;
    const auto dist3 = ref_bfs_distances(g, v, 3);
    std::size_t layered = 0;
    for (std::size_t t = 0; t < layers.size(); ++t) {
      layered += layers[t].size();
      EXPECT_TRUE(std::is_sorted(layers[t].begin(), layers[t].end())) << name;
      for (int u : layers[t]) {
        EXPECT_EQ(dist3[static_cast<std::size_t>(u)], static_cast<int>(t))
            << name;
      }
    }
    std::size_t reachable3 = 0;
    for (int d : dist3) {
      if (d != -1) ++reachable3;
    }
    EXPECT_EQ(layered, reachable3) << name;
  }
}

TEST(FrontierBfs, FilteredRunKeepsTheSourceAndHonorsTheMask) {
  Rng rng(11);
  const Graph g = random_regular(400, 6, rng);
  BfsScratch scratch;
  auto mask = [](int v) { return v % 3 != 0; };
  for (int v : {1, 2, 100, 399}) {
    scratch.run_filtered(g, v, 4, mask);
    const auto order = scratch.order();
    EXPECT_EQ(order.front(), v);  // source always included, even if masked
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_TRUE(mask(order[i]));
    }
  }
}

TEST(FrontierBfs, EpochReuseAcrossThousandsOfQueries) {
  Rng rng(13);
  const Graph big = random_regular(600, 5, rng);
  const Graph small = random_tree(37, 3, rng);
  const Graph grid = grid_graph(8, 8, false);
  BfsScratch scratch;
  for (int q = 0; q < 4000; ++q) {
    // Alternate graphs of different sizes through the same scratch; verify
    // against the reference on a deterministic subsample.
    const Graph& g = (q % 3 == 0) ? small : (q % 3 == 1) ? grid : big;
    const int v = q % g.num_vertices();
    const int r = q % 5;
    scratch.run(g, v, r);
    if (q % 37 == 0) {
      expect_matches_reference(g, scratch, ref_bfs_distances(g, v, r),
                               "query " + std::to_string(q));
    } else {
      // Cheap invariant on every query: the source is level 0.
      ASSERT_GE(scratch.num_levels(), 1);
      ASSERT_EQ(scratch.level(0).size(), 1u);
      EXPECT_EQ(scratch.level(0)[0], v);
    }
  }
}

TEST(FrontierBfs, RoutedHelpersAreThreadCountInvariant) {
  Rng rng(19);
  const Graph g = random_regular(3000, 5, rng);
  std::vector<int> all(static_cast<std::size_t>(g.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  const Graph serial_power = power_graph(g, all, 2);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(power_graph(g, all, 2, &pool).edge_list(),
              serial_power.edge_list())
        << threads;
  }
}

TEST(FrontierBfs, DecompositionPooledMatchesSerial) {
  Rng rng(29);
  const Graph g = random_regular(800, 5, rng);
  RoundLedger l1, l2;
  Rng r1(99), r2(99);
  const auto serial = random_shift_decomposition(g, 0.25, r1, l1, "nd");
  ThreadPool pool(8);
  const auto pooled =
      random_shift_decomposition(g, 0.25, r2, l2, "nd", &pool);
  EXPECT_EQ(pooled.cluster, serial.cluster);
  EXPECT_EQ(pooled.cluster_color, serial.cluster_color);
  EXPECT_EQ(pooled.max_diameter, serial.max_diameter);
  EXPECT_EQ(l1.total(), l2.total());
}

TEST(FrontierBfs, EmptySourcesAndIsolatedVertices) {
  const Graph g = Graph::from_edges(5, std::vector<Edge>{{0, 1}});
  BfsScratch scratch;
  scratch.run_multi(g, std::vector<int>{});
  EXPECT_EQ(scratch.num_levels(), 0);
  EXPECT_TRUE(scratch.order().empty());
  scratch.run(g, 4);  // isolated vertex
  EXPECT_EQ(scratch.num_levels(), 1);
  ASSERT_EQ(scratch.order().size(), 1u);
  EXPECT_EQ(scratch.order()[0], 4);
  EXPECT_EQ(scratch.dist(4), 0);
}

}  // namespace
}  // namespace deltacol
