/// \file
/// Per-rank graph loading for distributed runs: each process materializes
/// only its own contiguous CSR slice and learns about the boundary (halo)
/// by asking the owners over the wire.
///
/// Three pieces, all flat CSR rows (graph/graph.h `Rows`):
///
///   * `CsrSlice` — the owned rows [lo, hi) of the global CSR, with global
///     neighbor ids. `slice_of` cuts one from an in-memory Graph (the
///     reference path); `load_edge_list_slice` streams the standard edge-list
///     format (graph/io.h) and keeps only edges touching the owned range, so
///     a rank never holds the full graph.
///   * `halo_of` — the sorted global ids of non-owned endpoints reachable
///     from the slice.
///   * `exchange_halo_adjacency` — two `SocketTransport::exchange_owned`
///     trips (request halo ids from their owners, owners reply with one flat
///     CSR of the requested rows), giving every rank the one-hop
///     neighborhoods of its halo without any rank loading remote rows from
///     disk.
///
/// tests/test_socket_transport.cpp checks slices and halo rows against the
/// full graph on the generator zoo, and the mpi-like launcher prints
/// per-rank slice statistics from this path.
///
/// This loader is the data-side half of a distributed run (DESIGN.md §6,
/// "Distributed rounds"): a rank that loads only its slice holds
/// O(n/S + halo) graph *and*, on the message-passing engine,
/// O(n/S + halo) algorithm state — nothing per-vertex global ever
/// materializes on a rank until the end-of-run `gather_colors`.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "net/socket_transport.h"

namespace deltacol {

/// The owned rows [lo, hi) of the global CSR: row v - lo of `rows` holds
/// owned vertex v's sorted **global** neighbor ids, so cross-shard edges
/// are visible as targets outside [lo, hi).
///
/// **Coordinates.** Slices live in the partition's *layout* space, where
/// ownership is contiguous by construction: for the contiguous partition
/// that is the original id space unchanged; for a renumbered locality
/// partition (graph/renumber.h) row p is original vertex
/// part.vertex_at(p) and targets are layout positions too. Callers
/// translate at the boundary with part.vertex_at / part.position_of —
/// exactly the id-translation discipline the rest of the runtime uses.
struct CsrSlice {
  int n_global = 0;
  int lo = 0;
  int hi = 0;
  Rows rows;

  int num_owned() const { return hi - lo; }
  bool owns(int v) const { return v >= lo && v < hi; }
  int degree(int v) const { return rows.degree(v - lo); }
  /// Sorted global neighbor ids of owned vertex \p v.
  std::span<const int> neighbors(int v) const { return rows[v - lo]; }
};

/// Cuts shard \p shard's slice from an in-memory graph (reference path).
/// Works for contiguous and renumbered partitions alike (see the
/// coordinates note on CsrSlice).
CsrSlice slice_of(const Graph& g, const VertexPartition& part, int shard);

/// Streams the graph/io.h edge-list format and keeps only the rows owned by
/// \p shard under the contiguous partition of n into \p num_shards. Any
/// rank's slice of a file equals `slice_of` on the fully loaded graph. The
/// kept (row, target) pairs go through bucket_rows and sort_unique_rows, so
/// repeated edges merge.
CsrSlice load_edge_list_slice(std::istream& in, int num_shards, int shard);
CsrSlice load_edge_list_slice(const std::string& path, int num_shards,
                              int shard);

/// Streaming load under an explicit (possibly renumbered) partition, which
/// must span the file's vertex count. Edge endpoints are relabeled into
/// layout space on the fly through the partition's O(n) position table —
/// the rank holds its own rows plus that table, never the full O(m) graph.
/// Equals `slice_of(g, part, shard)` on the fully loaded graph.
CsrSlice load_edge_list_slice(std::istream& in, const VertexPartition& part,
                              int shard);
CsrSlice load_edge_list_slice(const std::string& path,
                              const VertexPartition& part, int shard);

/// Sorted global ids of non-owned endpoints reachable from the slice.
std::vector<int> halo_of(const CsrSlice& slice);

/// A slice's halo with its rows: `ids` is halo_of(slice), and rows[i] is
/// ids[i]'s full sorted adjacency in the slice's coordinates.
struct HaloRows {
  std::vector<int> ids;
  Rows rows;

  std::size_t size() const { return ids.size(); }
};

/// Fetches the rows of the slice's halo from their owners over \p transport;
/// every rank of the world calls it collectively with its own slice. Each
/// owner answers with one flat CSR (a u32 count and the degrees, then the
/// adjacency; no ids echoed), and the replies concatenate in halo_of order.
/// A malformed request or reply throws WireError naming the peer and the
/// failed check.
HaloRows exchange_halo_adjacency(SocketTransport& transport,
                                 const CsrSlice& slice);

}  // namespace deltacol
