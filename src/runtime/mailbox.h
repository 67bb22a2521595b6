/// \file
/// The shard runtime's execution layer (the data layer is graph/partition.h;
/// ARCHITECTURE.md "The message engine and the shard layer"). The message
/// engine that drives it is runtime/sync_engine.h.
///
/// Two pieces:
///
///  * `Transport` — the only interface a distributed backend implements. It
///    answers "how many shards", "which shard is local" (local_shard(): -1
///    in process, a rank id when distributed) and — for distributed backends
///    — "ship each peer its frame of this round and give me the frames
///    addressed to me" (exchange_owned), plus the small collectives a
///    distributed run needs. `InProcessTransport` is the in-memory backend:
///    every shard is local, so nothing is ever shipped. `SocketTransport`
///    (net/socket_transport.h) is the TCP backend: each OS process owns one
///    shard and the bytes move through exchange_owned — nothing above this
///    interface changes.
///
///  * `ShardRuntime` — one graph's shard bundle: partition + views +
///    transport + cumulative message-volume counters per (owner of sender,
///    owner of receiver), in messages AND in wire bits (MessageSize,
///    runtime/message_size.h) — the CONGEST metrics bench_e16 reports and
///    the serialization sizing a socket Transport needs.
///
/// The header keeps its historical name because the repository benchmark
/// (perfbench/) includes it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/partition.h"
#include "runtime/thread_pool.h"

namespace deltacol {

/// Moves one round's cross-rank messages between shards. See the file
/// comment for the backend contract.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_shards() const = 0;

  /// The one shard this OS process owns, or -1 when every shard is local
  /// (the in-process backend). When >= 0, the engine holds state and inbox
  /// slots for this shard only and moves its cross-rank messages through
  /// exchange_owned (runtime/sync_engine.h, DESIGN.md §6).
  virtual int local_shard() const { return -1; }

  /// Result of exchange_owned. `slots[s]` is the frame payload rank s
  /// addressed to this rank (empty at s == local_shard — local messages
  /// never cross the wire); `slot_counts` / `slot_bits` are the reassembled
  /// full S×S row-major tallies (every rank's sent row, piggybacked on the
  /// frames), so ShardRuntime::record_round sees the same counters the
  /// in-process run sees.
  struct OwnedExchange {
    std::vector<std::vector<std::uint8_t>> slots;
    std::vector<std::int64_t> slot_counts;
    std::vector<std::int64_t> slot_bits;
  };

  /// The distributed byte exchange: ships `to_peers[d]` — this round's
  /// payload for rank d (an edge frame, net/wire_codec.h) — point-to-point
  /// to rank d only (to_peers at the local index must be empty), together
  /// with this rank's sent tallies (`row_counts` / `row_bits`, S entries
  /// each), and returns the payloads the peers addressed to this rank plus
  /// the reassembled global tallies. Blocks until every peer's frame
  /// arrived (the inter-round barrier). Only meaningful when
  /// local_shard() >= 0; the in-process default has no wire and throws.
  virtual OwnedExchange exchange_owned(
      std::vector<std::vector<std::uint8_t>> to_peers,
      std::vector<std::int64_t> row_counts, std::vector<std::int64_t> row_bits);

  /// Deterministic cross-rank sum of one i64 per rank (folded in ascending
  /// rank order). The in-process default is the identity: every shard is
  /// local, so the caller's value already is the global value. Distributed
  /// runs use this for termination tests over owned-only state.
  virtual std::int64_t allreduce_sum(std::int64_t value) { return value; }

  /// Deterministic cross-rank max of one i64 per rank. In-process identity,
  /// like allreduce_sum. Distributed runs use this for the CONGEST
  /// heaviest-edge fold, which is order-free by construction.
  virtual std::int64_t allreduce_max(std::int64_t value) { return value; }

  /// Reassembles a globally indexed per-vertex array on every rank: each
  /// rank contributes `values[v]` for the vertices its shard owns under
  /// `part`, and on return every entry is globally agreed — the
  /// deterministic end-of-run gather of a distributed run (colorings, MIS
  /// flags, any per-vertex int). The in-process default is a no-op: every
  /// vertex is already local.
  virtual void gather_colors(const VertexPartition& part,
                             std::vector<int>& values) {
    (void)part;
    (void)values;
  }
};

/// The shared-memory backend: every shard is local to this process.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(int num_shards);

  int num_shards() const override { return num_shards_; }

 private:
  int num_shards_;
};

/// Shim for perfbench/src/main.cpp only; see
/// ShardRuntime::set_exchange_policy.
enum class ExchangePolicy { kOwnerRouted };

/// One graph's shard bundle: the deterministic partition, each shard's
/// GraphView, the transport, and cumulative message-volume accounting.
/// Engines hold a (mutable) pointer; construction is O(n + m) once.
///
/// The constructors' `pool` is unused — the engine takes its pool directly
/// (runtime/sync_engine.h) — and stays only so the repository benchmark
/// (perfbench/src/main.cpp) builds unchanged.
class ShardRuntime {
 public:
  /// In-process runtime over the contiguous S-shard partition.
  ShardRuntime(const Graph& g, int num_shards, ThreadPool* pool);
  /// Custom backend (the socket runtime injects SocketTransport).
  ShardRuntime(const Graph& g, int num_shards, ThreadPool* pool,
               std::unique_ptr<Transport> transport);
  /// Explicit partition (contiguous or renumbered — graph/renumber.h); the
  /// partition's shard count is authoritative. transport == nullptr builds
  /// the in-process backend.
  ShardRuntime(const Graph& g, VertexPartition part, ThreadPool* pool,
               std::unique_ptr<Transport> transport = nullptr);

  int num_shards() const { return part_.num_shards(); }
  const VertexPartition& partition() const { return part_; }
  const GraphView& view(int shard) const {
    return views_[static_cast<std::size_t>(shard)];
  }
  Transport& transport() const { return *transport_; }

  /// No-op kept only so the repository benchmark (perfbench/src/main.cpp),
  /// which still sets the policy, builds unchanged: owner routing is the
  /// only way a distributed round moves messages. Delete together with
  /// ExchangePolicy once that caller is gone.
  void set_exchange_policy(ExchangePolicy) {}

  // --- message-volume accounting (per-round CONGEST metrics, bench_e16):
  // --- cumulative per-(src, dst) message counts and wire bits.

  /// Folds one round's message counts and wire-bit totals (both row-major
  /// over (owner of sender, owner of receiver), S*S entries). Called by the
  /// engine on the calling thread after the receive sweep.
  void record_round(const std::vector<std::int64_t>& slot_counts,
                    const std::vector<std::int64_t>& slot_bit_totals);

  std::int64_t rounds_recorded() const { return rounds_; }
  /// Cumulative messages from shard src's vertices to shard dst's.
  std::int64_t slot_messages(int src, int dst) const {
    return sent_[slot_index(src, dst)];
  }
  /// Cumulative wire bits from shard src to shard dst (MessageSize sizing).
  std::int64_t slot_bits(int src, int dst) const {
    return sent_bits_[slot_index(src, dst)];
  }
  std::int64_t total_messages() const;
  std::int64_t total_bits() const;
  /// Messages that crossed a shard boundary (src != dst) — the part a
  /// distributed transport pays for.
  std::int64_t cross_shard_messages() const;
  /// Wire bits that crossed a shard boundary.
  std::int64_t cross_shard_bits() const;

  /// Zeroes every cumulative counter (messages, bits, rounds) so one
  /// runtime — whose partition/view/transport construction is O(n + m) —
  /// can be reused across independent workloads with per-workload
  /// accounting. Views, partition and transport are untouched.
  void reset_counters();

 private:
  std::size_t slot_index(int src, int dst) const {
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(num_shards()) +
           static_cast<std::size_t>(dst);
  }

  VertexPartition part_;
  std::vector<GraphView> views_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::int64_t> sent_;       // row-major (src, dst), cumulative
  std::vector<std::int64_t> sent_bits_;  // same shape, MessageSize bits
  std::int64_t rounds_ = 0;
};

}  // namespace deltacol
