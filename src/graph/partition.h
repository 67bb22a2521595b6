/// \file
/// Deterministic vertex partitioning and per-shard graph views — the data
/// layer of the shard runtime (see runtime/mailbox.h for the execution
/// layer and ARCHITECTURE.md "The message engine and the shard layer" for
/// the full picture).
///
/// A `VertexPartition` splits the dense vertex ids [0, n) into `num_shards`
/// **contiguous, ascending** ranges whose sizes differ by at most one. Two
/// properties make this the partition the whole runtime is built on:
///
///  1. **Determinism.** The split is a pure function of (n, num_shards) —
///     no hashing, no seeds — so every process (today: every shard job on
///     the ThreadPool; later: every rank of a distributed transport) derives
///     the identical owner map locally.
///  2. **Order preservation.** Ranges ascend with the shard id, so
///     concatenating per-shard data in shard order reproduces ascending
///     vertex order.
///
/// A `GraphView` is one shard's projection of a CSR `Graph`: a zero-copy
/// window of owned vertices (whose adjacency it reads directly from the
/// parent's CSR arrays) plus a **halo table** — the sorted global ids of
/// non-owned vertices adjacent to owned ones (the "ghost" vertices a
/// distributed shard would replicate) and per-destination-shard cross-edge
/// counts (the CONGEST-style message budget of one dense round, and the
/// length of the engine's per-peer edge frames — runtime/sync_engine.h).
///
/// **Renumbered partitions (PR 8).** A `VertexPartition` can additionally
/// carry a locality-aware bijection between the original vertex ids and a
/// *layout* space (see graph/renumber.h): shard s still owns the contiguous
/// layout range [begin(s), end(s)), but the vertices living in that range
/// are `{to_old[p] : p in [begin(s), end(s))}`. Execution stays entirely in
/// original ids — the renumbering only redefines *ownership and layout* —
/// so every determinism contract (id-keyed RNG splits, id tie-breaks,
/// Linial's id-seeded palette) is untouched by construction (DESIGN.md §6).
/// `shard_of` remains O(1): one array lookup plus the closed form.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace deltacol {

/// How the shard runtime assigns vertices to shards.
///  - kContiguous: shard s owns the ascending id range
///    [floor(s*n/S), floor((s+1)*n/S)) — the pessimistic baseline (E15:
///    cross_fraction ~ (S-1)/S on scrambled inputs).
///  - kCluster: a deterministic BFS-ball renumbering pre-pass
///    (graph/renumber.h) packs nearby vertices into the same shard;
///    observables stay bit-identical to kContiguous.
enum class PartitionStrategy {
  kContiguous = 0,
  kCluster = 1,
};

/// "contiguous" / "cluster" (stable CLI / JSON spelling).
const char* partition_strategy_name(PartitionStrategy strategy);

/// Parses the CLI spelling; returns false (and leaves *out alone) on an
/// unknown name.
bool parse_partition_strategy(const std::string& name, PartitionStrategy* out);

/// Contiguous balanced split of [0, n) into num_shards ascending ranges.
/// Empty shards are legal (num_shards may exceed n); shard s owns
/// [floor(s*n/S), floor((s+1)*n/S)).
///
/// In renumbered mode (see file comment) the ranges live in *layout* space
/// and `owned_vertex(s, i)` enumerates the owned original ids in ascending
/// original-id order. Copies are O(1): the permutation tables are shared.
class VertexPartition {
 public:
  VertexPartition() = default;

  /// The canonical deterministic partition (see file comment).
  /// Requires num_shards >= 1; n >= 0.
  static VertexPartition contiguous(int n, int num_shards);

  /// A partition whose shard s owns the original ids mapped into the layout
  /// range [begin(s), end(s)) by the bijection to_new/to_old
  /// (to_old[to_new[v]] == v for all v; validated). num_shards == 1
  /// degenerates to contiguous (every vertex owned by shard 0).
  static VertexPartition renumbered(
      int num_shards, std::shared_ptr<const std::vector<int>> to_new,
      std::shared_ptr<const std::vector<int>> to_old);

  /// Resolves a requested shard count: values < 1 mean "unsharded" and
  /// clamp to 1.
  static int resolve_num_shards(int requested);

  int num_vertices() const { return n_; }
  int num_shards() const { return num_shards_; }

  /// True when layout space == id space (no renumbering attached).
  bool is_contiguous() const { return to_new_ == nullptr; }

  /// First layout position of shard s (== first owned vertex id when
  /// is_contiguous()).
  int begin(int s) const { return static_cast<int>(int64_begin(s)); }
  /// One past the last layout position of shard s.
  int end(int s) const { return static_cast<int>(int64_begin(s + 1)); }
  int size(int s) const { return end(s) - begin(s); }

  /// Layout position of original vertex v (identity when contiguous).
  int position_of(int v) const {
    return to_new_ == nullptr ? v : (*to_new_)[static_cast<std::size_t>(v)];
  }
  /// Original vertex at layout position p (identity when contiguous).
  int vertex_at(int p) const {
    return to_old_ == nullptr ? p : (*to_old_)[static_cast<std::size_t>(p)];
  }

  /// i-th owned original id of shard s, ascending in original id;
  /// i in [0, size(s)). O(1) either way.
  int owned_vertex(int s, int i) const {
    return owned_ == nullptr
               ? begin(s) + i
               : (*owned_)[static_cast<std::size_t>(s)]
                          [static_cast<std::size_t>(i)];
  }

  /// Owner shard of vertex v, in O(1) (closed form of the inverse of
  /// begin() applied to v's layout position; exhaustively pinned against a
  /// scan in tests/test_partition and tests/test_renumber).
  /// Requires 0 <= v < num_vertices().
  int shard_of(int v) const {
    return static_cast<int>(
        ((static_cast<std::int64_t>(position_of(v)) + 1) * num_shards_ - 1) /
        n_);
  }

 private:
  std::int64_t int64_begin(int s) const {
    return static_cast<std::int64_t>(s) * n_ / num_shards_;
  }

  int n_ = 0;
  int num_shards_ = 1;
  // Renumbered mode only (all null when contiguous); shared so partition
  // copies stay O(1).
  std::shared_ptr<const std::vector<int>> to_new_;
  std::shared_ptr<const std::vector<int>> to_old_;
  std::shared_ptr<const std::vector<std::vector<int>>> owned_;
};

/// One shard's view of a Graph: owned contiguous layout range + halo table.
/// Zero-copy — adjacency reads go straight to the parent CSR; only the halo
/// table and the per-shard cross-edge counters are materialized (O(owned
/// adjacency) build, once). Under a renumbered partition the owned range
/// [owned_begin(), owned_end()) is in *layout* space; `owned_vertex(i)`
/// enumerates the owned original ids, and halo()/neighbors() stay in
/// original ids throughout.
class GraphView {
 public:
  GraphView() = default;

  /// Builds shard `shard`'s view. The partition must span g's vertices.
  GraphView(const Graph& g, const VertexPartition& part, int shard);

  const Graph& graph() const { return *g_; }
  const VertexPartition& partition() const { return part_; }
  int shard() const { return shard_; }

  /// Layout-space bounds of the owned range (== vertex-id bounds when the
  /// partition is contiguous).
  int owned_begin() const { return lo_; }
  int owned_end() const { return hi_; }
  int num_owned() const { return hi_ - lo_; }
  /// i-th owned original id, ascending in original id; i in [0, num_owned()).
  int owned_vertex(int i) const { return part_.owned_vertex(shard_, i); }
  bool owns(int v) const {
    return part_.is_contiguous() ? (lo_ <= v && v < hi_)
                                 : part_.shard_of(v) == shard_;
  }

  /// Adjacency of an owned vertex (straight from the parent CSR; callers
  /// split owned vs halo endpoints with owns()).
  std::span<const int> neighbors(int v) const { return g_->neighbors(v); }

  /// Ghost table: sorted, duplicate-free global ids of every non-owned
  /// vertex adjacent to an owned one. A distributed shard replicates
  /// exactly these vertices' state.
  std::span<const int> halo() const { return {halo_.data(), halo_.size()}; }
  bool in_halo(int v) const;

  /// Undirected edges with both endpoints owned.
  std::int64_t internal_edges() const { return internal_edges_; }
  /// Directed (owned -> dst-shard) cross edges: the number of per-round
  /// messages this shard sends to `dst` under a dense all-neighbors round.
  std::int64_t cross_edges(int dst_shard) const {
    return cross_[static_cast<std::size_t>(dst_shard)];
  }
  /// Total directed cross edges leaving this shard.
  std::int64_t total_cross_edges() const;

 private:
  const Graph* g_ = nullptr;
  VertexPartition part_;  // O(1) copy (shared permutation tables)
  int shard_ = 0;
  int lo_ = 0;
  int hi_ = 0;
  std::vector<int> halo_;
  std::vector<std::int64_t> cross_;  // indexed by destination shard
  std::int64_t internal_edges_ = 0;
};

/// All shards' views of g under part, indexed by shard id.
std::vector<GraphView> build_graph_views(const Graph& g,
                                         const VertexPartition& part);

}  // namespace deltacol
