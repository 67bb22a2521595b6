/// \file
/// Locality-aware vertex renumbering — the pre-pass behind
/// `PartitionStrategy::kCluster` (ROADMAP direction 2; DESIGN.md §6 for the
/// determinism argument, ARCHITECTURE.md "Partitioning" for the picture).
///
/// The contiguous `VertexPartition` is the pessimistic baseline: on inputs
/// with arbitrary ("wild") vertex ids, a fraction ≈ (S-1)/S of all edges
/// cross shards, so nearly every engine message — and, on the TCP path,
/// nearly every encoded payload byte — is cross-rank (experiment E16's
/// cross_bytes_fraction).
/// `cluster_renumbering` computes a bijection between the original ids and a
/// *layout* space in which topologically nearby vertices sit at nearby
/// positions, so the same contiguous split now cuts along cluster seams
/// (experiment E18 measures the drop).
///
/// The algorithm (chosen over label propagation — see DESIGN.md §6 for the
/// justification) is deterministic BFS ball growing, the same idea the
/// paper's network decomposition uses for cluster growing:
///
///  1. **Grow.** Repeatedly take the lowest still-unassigned id as a seed
///     and run a BFS over unassigned vertices that stops once it has
///     claimed `target_cluster_size` of them: the cluster is that prefix of
///     the BFS visit order (a prefix of BFS visit order is connected, so
///     every cluster is connected).
///  2. **Linearize within clusters.** Order each cluster's members by an
///     ascending-neighbor DFS preorder from the seed, restricted to the
///     cluster. DFS subtree contiguity keeps any *slice* of a cluster's
///     range locality-dense — BFS level order would interleave tree levels
///     (on trees/cacti it degenerates to heap order, where parent and child
///     are far apart).
///  3. **Linearize across clusters.** Concatenate clusters in DFS preorder
///     over the cluster quotient graph (ascending cluster ids, restarting
///     from the lowest unvisited cluster per component), so adjacent
///     clusters get adjacent layout ranges.
///
/// The result is a pure function of the graph — no seeds, no shard count —
/// so every rank derives the identical permutation locally, and one
/// permutation serves every S. Cost: O(n + m) plus sorting the quotient
/// rows. Each growth BFS scans only its own members' adjacency, and each
/// quotient row is built from its cluster's members, each neighboring
/// cluster pushed once.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "runtime/thread_pool.h"

namespace deltacol {

/// A bijection original id <-> layout position, shared (O(1) copies).
struct Renumbering {
  /// original id v -> layout position.
  std::shared_ptr<const std::vector<int>> to_new;
  /// layout position p -> original id.
  std::shared_ptr<const std::vector<int>> to_old;
  /// Number of clusters the growing pass produced (1 cluster per connected
  /// region of size <= target; identity_renumbering reports 0).
  int num_clusters = 0;

  int num_vertices() const {
    return to_new == nullptr ? 0 : static_cast<int>(to_new->size());
  }
  int position_of(int v) const {
    return (*to_new)[static_cast<std::size_t>(v)];
  }
  int original_of(int p) const {
    return (*to_old)[static_cast<std::size_t>(p)];
  }
};

/// The identity layout (useful as a differential baseline in tests).
Renumbering identity_renumbering(int n);

/// Deterministic BFS-ball clustering + DFS linearization (file comment).
/// target_cluster_size <= 0 picks the default max(1, n/64) — small enough
/// that any shard count up to 64 gets whole clusters, large enough that the
/// quotient stays tiny. Serial: each cluster's BFS depends on the clusters
/// carved before it.
Renumbering cluster_renumbering(const Graph& g, int target_cluster_size = 0);

/// The graph in layout coordinates: vertex p is renum.original_of(p), edges
/// relabeled accordingly. The runtime never needs this (execution stays in
/// original ids); it exists for isomorphism checks and locality inspection.
Graph relabeled_graph(const Graph& g, const Renumbering& renum);

/// The partition the shard runtime should use for (g, num_shards) under
/// `strategy`: plain contiguous, or contiguous-over-the-cluster-layout.
/// num_shards < 1 clamps to 1; S == 1 always yields the contiguous
/// partition (no renumbering cost on the serial path). `pool` is unused:
/// it stays only because perfbench/src/main.cpp passes one (ROADMAP,
/// perfbench shim).
VertexPartition make_partition(const Graph& g, int num_shards,
                               PartitionStrategy strategy,
                               ThreadPool* pool = nullptr);

}  // namespace deltacol
