// The shard data layer (graph/partition.h): the contiguous deterministic
// VertexPartition (boundary cases: more shards than vertices/components,
// singleton and empty shards, the O(1) shard_of closed form), and each
// shard's halo (halo_of(slice_of(...)), net/rank_loader.h) and the
// runtime's directed edge counts (ShardRuntime::edges_between) pinned
// against the global adjacency, under the contiguous and the cluster
// partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "graph/ops.h"
#include "graph/partition.h"
#include "graph/renumber.h"
#include "net/rank_loader.h"
#include "runtime/mailbox.h"
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

// The owner of v found by scanning the layout ranges, independent of
// shard_of's closed form.
int scan_owner(const VertexPartition& p, int v) {
  const int pos = p.position_of(v);
  int d = 0;
  while (!(p.begin(d) <= pos && pos < p.end(d))) ++d;
  return d;
}

// Brute-force halo of shard s, in layout ids, straight from the global
// adjacency.
std::vector<int> reference_halo(const Graph& g, const VertexPartition& p,
                                int s) {
  std::set<int> halo;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (scan_owner(p, v) != s) continue;
    for (int u : g.neighbors(v)) {
      if (scan_owner(p, u) != s) halo.insert(p.position_of(u));
    }
  }
  return {halo.begin(), halo.end()};
}

// Brute-force directed edge counts, row-major (src, dst).
std::vector<std::int64_t> reference_edge_counts(const Graph& g,
                                                const VertexPartition& p) {
  const int num_shards = p.num_shards();
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(num_shards * num_shards), 0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int u : g.neighbors(v)) {
      ++counts[static_cast<std::size_t>(scan_owner(p, v) * num_shards +
                                        scan_owner(p, u))];
    }
  }
  return counts;
}

// The contiguous partition and the cluster layout, whose shards own ids
// scattered over [0, n).
std::vector<VertexPartition> both_partitions(const Graph& g, int num_shards) {
  return {VertexPartition::contiguous(g.num_vertices(), num_shards),
          make_partition(g, num_shards, PartitionStrategy::kCluster)};
}

const char* kind_of(const VertexPartition& p) {
  return p.is_contiguous() ? "contiguous" : "cluster";
}

// Every shard's halo_of(slice_of(...)) equals the brute-force halo, and no
// halo vertex is owned by its own shard.
void expect_halos_match(const Graph& g, const VertexPartition& p) {
  for (int s = 0; s < p.num_shards(); ++s) {
    const CsrSlice slice = slice_of(g, p, s);
    const std::vector<int> halo = halo_of(slice);
    EXPECT_EQ(halo, reference_halo(g, p, s)) << kind_of(p) << " shard " << s;
    for (int h : halo) EXPECT_FALSE(slice.owns(h)) << kind_of(p);
  }
}

TEST(ShardSlices, HaloMatchesGlobalAdjacency) {
  Rng rng(11);
  const Graph g = random_graph_max_degree(300, 7, 2.0, rng);
  for (int num_shards : {1, 2, 3, 8}) {
    for (const VertexPartition& p : both_partitions(g, num_shards)) {
      expect_halos_match(g, p);
    }
  }
}

TEST(ShardEdgeCounts, PartitionTheGlobalEdgeSet) {
  Rng rng(13);
  const Graph g = random_regular(240, 6, rng);
  for (int num_shards : {1, 2, 5, 8}) {
    for (const VertexPartition& p : both_partitions(g, num_shards)) {
      const ShardRuntime rt(g, p, nullptr);
      std::int64_t total = 0;
      for (int s = 0; s < num_shards; ++s) {
        for (int d = 0; d < num_shards; ++d) {
          total += rt.edges_between(s, d);
          // Undirected edges: as many s -> d as d -> s.
          EXPECT_EQ(rt.edges_between(s, d), rt.edges_between(d, s))
              << kind_of(p);
        }
      }
      // Every undirected edge counts once from each end.
      EXPECT_EQ(total, 2 * g.num_edges())
          << kind_of(p) << " " << num_shards << " shards";
      if (num_shards == 1) {
        EXPECT_EQ(rt.edges_between(0, 0), 2 * g.num_edges());
      }
    }
  }
}

TEST(ShardEdgeCounts, MatchBruteForce) {
  Rng rng(17);
  const Graph g = random_graph_max_degree(150, 5, 1.7, rng);
  const int num_shards = 4;
  for (const VertexPartition& p : both_partitions(g, num_shards)) {
    const ShardRuntime rt(g, p, nullptr);
    const auto expect = reference_edge_counts(g, p);
    for (int s = 0; s < num_shards; ++s) {
      for (int d = 0; d < num_shards; ++d) {
        EXPECT_EQ(rt.edges_between(s, d),
                  expect[static_cast<std::size_t>(s * num_shards + d)])
            << kind_of(p) << " shard " << s << " -> " << d;
      }
    }
  }
}

TEST(ShardSlices, EmptyShardsHaveEmptySlices) {
  // More shards than vertices (and than components): empty shards must
  // build fine with no rows, empty halos and zero counts.
  Rng rng(19);
  const Graph g = random_regular(6, 3, rng);
  for (const VertexPartition& p : both_partitions(g, 9)) {
    const ShardRuntime rt(g, p, nullptr);
    int empty = 0;
    for (int s = 0; s < 9; ++s) {
      const CsrSlice slice = slice_of(g, p, s);
      if (slice.num_owned() != 0) continue;
      ++empty;
      EXPECT_EQ(slice.rows.size(), 0) << kind_of(p);
      EXPECT_TRUE(slice.rows.targets.empty()) << kind_of(p);
      EXPECT_TRUE(halo_of(slice).empty()) << kind_of(p);
      for (int d = 0; d < 9; ++d) {
        EXPECT_EQ(rt.edges_between(s, d), 0) << kind_of(p);
        EXPECT_EQ(rt.edges_between(d, s), 0) << kind_of(p);
      }
    }
    EXPECT_EQ(empty, 3) << kind_of(p);
    expect_halos_match(g, p);
  }
}

TEST(ShardSlices, MoreShardsThanComponents) {
  // Two components, eight shards: the partition is id-based, so shards cut
  // straight through components; halos still reconstruct exactly.
  Rng rng(23);
  const Graph a = random_regular(40, 4, rng);
  const Graph b = random_regular(30, 3, rng);
  const Graph g = disjoint_union(a, b);
  for (const VertexPartition& p : both_partitions(g, 8)) {
    expect_halos_match(g, p);
  }
}

}  // namespace
}  // namespace deltacol
