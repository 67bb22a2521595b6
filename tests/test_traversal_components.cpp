// Tests for BFS utilities and connectivity / biconnectivity.
//
// Block decomposition is cross-validated against a brute-force definition:
// u, v are in a common block iff the edge set has a cycle through them /
// removing any single other vertex keeps them connected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "graph/components.h"
#include "graph/frontier_bfs.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/structure.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(6);
  const auto d = bfs_distances(g, 0);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, MaxDistTruncates) {
  const Graph g = path_graph(10);
  const auto d = bfs_distances(g, 0, 3);
  EXPECT_EQ(d[3], 3);
  EXPECT_EQ(d[4], kUnreachable);
}

TEST(Bfs, DisconnectedUnreachable) {
  const Graph g = disjoint_union(path_graph(3), path_graph(3));
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[5], kUnreachable);
}

TEST(Bfs, BallContents) {
  const Graph g = grid_graph(5, 5, false);
  const auto b = ball(g, 12, 1);  // center of the grid
  EXPECT_EQ(b.size(), 5u);        // center + 4 neighbors
  const auto b2 = ball(g, 12, 2);
  EXPECT_EQ(b2.size(), 13u);
}

TEST(Bfs, BallFilteredRespectsMask) {
  const Graph g = path_graph(7);
  BfsScratch scratch;
  scratch.run_filtered(g, 3, 10, [](int v) { return v != 5; });
  std::set<int> s(scratch.order().begin(), scratch.order().end());
  EXPECT_TRUE(s.count(4));
  EXPECT_FALSE(s.count(5));
  EXPECT_FALSE(s.count(6));  // blocked behind 5
  EXPECT_TRUE(s.count(0));
}

TEST(Bfs, LayersPartitionBall) {
  const Graph g = hypercube_graph(4);
  const auto layers = bfs_layers(g, 0, 4);
  std::size_t total = 0;
  for (std::size_t t = 0; t < layers.size(); ++t) {
    total += layers[t].size();
    for (int v : layers[t]) {
      EXPECT_EQ(bfs_distances(g, 0)[v], static_cast<int>(t));
    }
  }
  EXPECT_EQ(total, 16u);
  EXPECT_EQ(layers[2].size(), 6u);  // C(4,2)
}

TEST(Bfs, EccentricityAndRadius) {
  EXPECT_EQ(eccentricity(path_graph(7), 0), 6);
  EXPECT_EQ(eccentricity(path_graph(7), 3), 3);
  EXPECT_EQ(graph_radius(path_graph(7)), 3);
  EXPECT_EQ(graph_radius(cycle_graph(8)), 4);
  EXPECT_EQ(graph_radius(clique_graph(5)), 1);
}

TEST(Components, CountsComponents) {
  Graph g = disjoint_union(cycle_graph(4), path_graph(3));
  g = disjoint_union(g, clique_graph(2));
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 3);
  const auto sets = cc.vertex_sets();
  EXPECT_EQ(sets[0].size(), 4u);
  EXPECT_EQ(sets[1].size(), 3u);
  EXPECT_EQ(sets[2].size(), 2u);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
}

// Component ids are dense and ascend with each component's lowest vertex:
// checked against a union-find labeling on sparse random graphs with many
// components, isolated vertices included.
TEST(Components, IdsAscendWithEachComponentsLowestVertex) {
  Rng rng(5);
  const int n = 500;
  for (int num_edges : {100, 250, 400}) {
    std::vector<Edge> edges;
    while (static_cast<int>(edges.size()) < num_edges) {
      const int u = rng.next_int(0, n - 1);
      const int v = rng.next_int(0, n - 1);
      if (u != v) edges.emplace_back(u, v);
    }
    const Graph g = Graph::from_edges(n, edges);
    std::vector<int> parent(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) parent[static_cast<std::size_t>(v)] = v;
    const auto find = [&](int v) {
      while (parent[static_cast<std::size_t>(v)] != v) {
        v = parent[static_cast<std::size_t>(v)];
      }
      return v;
    };
    for (const auto& [u, v] : g.edge_list()) {
      parent[static_cast<std::size_t>(find(u))] = find(v);
    }
    std::vector<int> id_of_root(static_cast<std::size_t>(n), -1);
    std::vector<int> expect(static_cast<std::size_t>(n));
    int count = 0;
    for (int v = 0; v < n; ++v) {
      int& id = id_of_root[static_cast<std::size_t>(find(v))];
      if (id == -1) id = count++;
      expect[static_cast<std::size_t>(v)] = id;
    }
    const auto cc = connected_components(g);
    EXPECT_EQ(cc.count, count) << num_edges;
    EXPECT_EQ(cc.component, expect) << num_edges;
  }
}

// Brute-force articulation test: v is articulation iff removing it
// increases the number of components restricted to its component.
std::vector<bool> brute_articulations(const Graph& g) {
  std::vector<bool> out(static_cast<std::size_t>(g.num_vertices()), false);
  const int base = connected_components(g).count;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto rest = remove_vertices(g, std::vector<int>{v});
    const int isolated = g.degree(v) == 0 ? 1 : 0;
    // Removing an isolated vertex removes a component; otherwise the count
    // must grow for v to be an articulation point.
    out[static_cast<std::size_t>(v)] =
        connected_components(rest.graph).count > base - isolated;
  }
  return out;
}

class BlockDecompositionTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockDecompositionTest, MatchesBruteForceArticulations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 1);
  const Graph g = random_graph_max_degree(40, 4, 1.3, rng);
  const auto bd = block_decomposition(g);
  const auto brute = brute_articulations(g);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(bd.is_articulation[v], brute[v]) << "vertex " << v;
  }
  // Every edge appears in exactly one block.
  std::multiset<Edge> edge_cover;
  for (const auto& blk : bd.blocks) {
    const auto sub = induced_subgraph(g, blk);
    for (const auto& [a, b] : sub.graph.edge_list()) {
      edge_cover.insert({sub.to_parent[a], sub.to_parent[b]});
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(edge_cover.size()), g.num_edges());
  for (const auto& e : g.edge_list()) EXPECT_EQ(edge_cover.count(e), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockDecompositionTest, ::testing::Range(0, 12));

TEST(BlockDecomposition, KnownShapes) {
  // A triangle with a pendant edge: blocks {0,1,2} and {2,3}.
  Graph g = Graph::from_edges(
      4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto bd = block_decomposition(g);
  EXPECT_EQ(bd.blocks.size(), 2u);
  EXPECT_TRUE(bd.is_articulation[2]);
  EXPECT_FALSE(bd.is_articulation[0]);

  // A clique is one block, no articulation points.
  const auto bd2 = block_decomposition(clique_graph(5));
  EXPECT_EQ(bd2.blocks.size(), 1u);
  EXPECT_EQ(bd2.blocks.front().size(), 5u);

  // A path of length k has k bridge blocks.
  const auto bd3 = block_decomposition(path_graph(6));
  EXPECT_EQ(bd3.blocks.size(), 5u);
  for (const auto& b : bd3.blocks) EXPECT_EQ(b.size(), 2u);
}

// The counting core behind block_decomposition reports, per block, the
// same vertex set and the edge count of the subgraph that set induces.
TEST(BlockDecomposition, CountingCoreMatchesInducedBlocks) {
  std::vector<Graph> graphs;
  Rng rng(23);
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(random_graph_max_degree(60, 5, 1.2 + 0.2 * i, rng));
    graphs.push_back(random_gallai_tree(80, 3 + i % 3, rng));
  }
  for (auto& w : generator_zoo()) graphs.push_back(std::move(w.graph));
  BlockScratch scratch;  // reused across graphs of different sizes
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const auto bd = block_decomposition(g);
    std::size_t index = 0;
    for_each_block(g, scratch,
                   [&](std::span<const int> block, std::int64_t edges) {
      EXPECT_LT(index, bd.blocks.size()) << "graph " << gi;
      if (index >= bd.blocks.size()) return false;
      std::vector<int> verts(block.begin(), block.end());
      std::sort(verts.begin(), verts.end());
      EXPECT_EQ(verts, bd.blocks[index])
          << "graph " << gi << " block " << index;
      EXPECT_EQ(edges, induced_subgraph(g, verts).graph.num_edges())
          << "graph " << gi << " block " << index;
      ++index;
      return true;
    });
    EXPECT_EQ(index, bd.blocks.size()) << "graph " << gi;
  }
}

TEST(BlockDecomposition, DeepPathNoStackOverflow) {
  const Graph g = path_graph(200000);
  const auto bd = block_decomposition(g);
  EXPECT_EQ(bd.blocks.size(), 199999u);
}

}  // namespace
}  // namespace deltacol
