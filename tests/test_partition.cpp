// The shard data layer (graph/partition.h): the contiguous deterministic
// VertexPartition (boundary cases: more shards than vertices/components,
// singleton and empty shards, the O(1) shard_of closed form) and GraphView
// halo tables / cross-edge counts pinned against the global adjacency,
// under the contiguous and the cluster partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/partition.h"
#include "graph/renumber.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(VertexPartition, ContiguousAscendingBalanced) {
  const VertexPartition p = VertexPartition::contiguous(10, 3);
  EXPECT_EQ(p.num_shards(), 3);
  EXPECT_EQ(p.begin(0), 0);
  EXPECT_EQ(p.end(2), 10);
  int covered = 0;
  int min_size = 10, max_size = 0;
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(p.begin(s), covered) << "ranges must be contiguous";
    covered = p.end(s);
    min_size = std::min(min_size, p.size(s));
    max_size = std::max(max_size, p.size(s));
  }
  EXPECT_EQ(covered, 10);
  EXPECT_LE(max_size - min_size, 1) << "sizes may differ by at most one";
}

TEST(VertexPartition, ShardOfClosedFormMatchesRangeScan) {
  // The O(1) owner formula must agree with the ranges for every (n, S),
  // including S > n (empty shards) and S == n (singleton shards).
  for (int n = 1; n <= 40; ++n) {
    for (int num_shards = 1; num_shards <= 45; ++num_shards) {
      const VertexPartition p = VertexPartition::contiguous(n, num_shards);
      for (int v = 0; v < n; ++v) {
        const int s = p.shard_of(v);
        ASSERT_TRUE(p.begin(s) <= v && v < p.end(s))
            << "n=" << n << " S=" << num_shards << " v=" << v;
      }
    }
  }
}

TEST(VertexPartition, MoreShardsThanVerticesYieldsEmptyShards) {
  const VertexPartition p = VertexPartition::contiguous(3, 10);
  int nonempty = 0;
  int covered = 0;
  for (int s = 0; s < 10; ++s) {
    EXPECT_GE(p.size(s), 0);
    EXPECT_LE(p.size(s), 1);
    if (p.size(s) > 0) ++nonempty;
    covered += p.size(s);
  }
  EXPECT_EQ(nonempty, 3);
  EXPECT_EQ(covered, 3);
}

TEST(VertexPartition, ResolveNumShards) {
  EXPECT_EQ(VertexPartition::resolve_num_shards(-2), 1);
  EXPECT_EQ(VertexPartition::resolve_num_shards(0), 1);
  EXPECT_EQ(VertexPartition::resolve_num_shards(1), 1);
  EXPECT_EQ(VertexPartition::resolve_num_shards(7), 7);
}

// Brute-force halo of one shard straight from the global adjacency.
std::vector<int> reference_halo(const Graph& g, const GraphView& view) {
  std::set<int> halo;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!view.owns(v)) continue;
    for (int u : g.neighbors(v)) {
      if (!view.owns(u)) halo.insert(u);
    }
  }
  return {halo.begin(), halo.end()};
}

// The contiguous partition and the cluster layout, whose shards own ids
// scattered over [0, n).
std::vector<VertexPartition> both_partitions(const Graph& g, int num_shards) {
  return {VertexPartition::contiguous(g.num_vertices(), num_shards),
          make_partition(g, num_shards, PartitionStrategy::kCluster)};
}

TEST(GraphView, HaloMatchesGlobalAdjacency) {
  Rng rng(11);
  const Graph g = random_graph_max_degree(300, 7, 2.0, rng);
  for (int num_shards : {1, 2, 3, 8}) {
    for (const VertexPartition& p : both_partitions(g, num_shards)) {
      const char* kind = p.is_contiguous() ? "contiguous" : "cluster";
      const auto views = build_graph_views(g, p);
      ASSERT_EQ(static_cast<int>(views.size()), num_shards);
      for (int s = 0; s < num_shards; ++s) {
        const GraphView& view = views[static_cast<std::size_t>(s)];
        const auto expect = reference_halo(g, view);
        const auto halo = view.halo();
        ASSERT_EQ(halo.size(), expect.size()) << kind << " shard " << s;
        for (std::size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(halo[i], expect[i])
              << kind << " shard " << s << " entry " << i;
        }
        // Owned vertices are never in their own halo.
        for (int i = 0; i < view.num_owned(); ++i) {
          EXPECT_FALSE(std::binary_search(halo.begin(), halo.end(),
                                          view.owned_vertex(i)))
              << kind;
        }
      }
    }
  }
}

TEST(GraphView, EdgeCountsPartitionTheGlobalEdgeSet) {
  Rng rng(13);
  const Graph g = random_regular(240, 6, rng);
  for (int num_shards : {1, 2, 5, 8}) {
    const VertexPartition p =
        VertexPartition::contiguous(g.num_vertices(), num_shards);
    const auto views = build_graph_views(g, p);
    std::int64_t internal = 0;
    std::int64_t cross_directed = 0;
    for (const auto& view : views) {
      internal += view.internal_edges();
      for (int d = 0; d < num_shards; ++d) {
        cross_directed += view.cross_edges(d);
      }
      // A shard never counts itself as a cross destination.
      EXPECT_EQ(view.cross_edges(view.shard()), 0);
    }
    // Every undirected edge is either internal to exactly one shard or
    // contributes one directed cross edge at each endpoint's shard.
    EXPECT_EQ(2 * internal + cross_directed, 2 * g.num_edges())
        << num_shards << " shards";
    if (num_shards == 1) {
      EXPECT_EQ(cross_directed, 0);
      EXPECT_EQ(internal, g.num_edges());
    }
  }
}

TEST(GraphView, CrossEdgeDestinationsMatchBruteForce) {
  Rng rng(17);
  const Graph g = random_graph_max_degree(150, 5, 1.7, rng);
  const int num_shards = 4;
  for (const VertexPartition& p : both_partitions(g, num_shards)) {
    const char* kind = p.is_contiguous() ? "contiguous" : "cluster";
    const auto views = build_graph_views(g, p);
    // The shard whose view owns u, found by asking every view.
    const auto owner = [&](int u) {
      int d = 0;
      while (!views[static_cast<std::size_t>(d)].owns(u)) ++d;
      return d;
    };
    for (int s = 0; s < num_shards; ++s) {
      std::vector<std::int64_t> expect(static_cast<std::size_t>(num_shards),
                                       0);
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (!views[static_cast<std::size_t>(s)].owns(v)) continue;
        for (int u : g.neighbors(v)) {
          const int d = owner(u);
          if (d != s) ++expect[static_cast<std::size_t>(d)];
        }
      }
      for (int d = 0; d < num_shards; ++d) {
        EXPECT_EQ(views[static_cast<std::size_t>(s)].cross_edges(d),
                  expect[static_cast<std::size_t>(d)])
            << kind << " shard " << s << " -> " << d;
      }
    }
  }
}

TEST(GraphView, EmptyShardsHaveEmptyViews) {
  // More shards than vertices (and than components): empty shards must
  // build fine with empty halos and zero counts.
  Rng rng(19);
  const Graph g = random_regular(6, 3, rng);
  const VertexPartition p = VertexPartition::contiguous(g.num_vertices(), 9);
  const auto views = build_graph_views(g, p);
  int empty = 0;
  for (const auto& view : views) {
    if (view.num_owned() == 0) {
      ++empty;
      EXPECT_TRUE(view.halo().empty());
      EXPECT_EQ(view.internal_edges(), 0);
      for (int d = 0; d < 9; ++d) EXPECT_EQ(view.cross_edges(d), 0);
    }
  }
  EXPECT_EQ(empty, 3);
}

TEST(GraphView, MoreShardsThanComponents) {
  // Two components, eight shards: the partition is id-based, so shards cut
  // straight through components; halos still reconstruct exactly.
  Rng rng(23);
  const Graph a = random_regular(40, 4, rng);
  const Graph b = random_regular(30, 3, rng);
  const Graph g = disjoint_union(a, b);
  const VertexPartition p = VertexPartition::contiguous(g.num_vertices(), 8);
  const auto views = build_graph_views(g, p);
  for (const auto& view : views) {
    const auto expect = reference_halo(g, view);
    ASSERT_EQ(view.halo().size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(view.halo()[i], expect[i]);
    }
  }
}

}  // namespace
}  // namespace deltacol
