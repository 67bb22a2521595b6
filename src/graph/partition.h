/// \file
/// Deterministic vertex partitioning — the ownership map of the shard
/// runtime (see runtime/mailbox.h for the execution layer, net/rank_loader.h
/// for a shard's rows and halo, and ARCHITECTURE.md "The message engine and
/// the shard layer" for the full picture).
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
/// A shard's data is flat CSR rows: `CsrSlice` holds its own rows and
/// `halo_of` / `exchange_halo_adjacency` its halo (net/rank_loader.h);
/// `ShardRuntime::edges_between` counts the edges between two shards
/// (runtime/mailbox.h).
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
/// In renumbered mode (see file comment) the ranges live in *layout* space:
/// shard s owns the original ids vertex_at(p) for p in [begin(s), end(s)).
/// Copies are O(1): the permutation tables are shared.
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
};

}  // namespace deltacol
