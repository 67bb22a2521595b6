/// \file
/// The shard runtime (the data layer is graph/partition.h; ARCHITECTURE.md
/// "The message engine and the shard layer"). The message engine that
/// drives it is runtime/sync_engine.h.
///
/// `ShardRuntime` is one graph's shard bundle: the partition, the directed
/// edge counts between its shards, an optional `SocketTransport`
/// (net/socket_transport.h) and cumulative message-volume counters per
/// (owner of sender, owner of receiver), in messages AND in wire bits
/// (message_bits, net/wire_codec.h) — the CONGEST metrics bench_e16
/// reports. Without a transport every shard runs in this process and the
/// runtime only keeps the accounting; with one, this OS process owns shard
/// `local_shard()` and the engine moves its cross-rank messages over the
/// transport.
///
/// The header keeps its historical name because the repository benchmark
/// (perfbench/) includes it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/partition.h"
#include "net/socket_transport.h"
#include "runtime/thread_pool.h"

namespace deltacol {

/// Shim for perfbench/src/main.cpp only; see
/// ShardRuntime::set_exchange_policy.
enum class ExchangePolicy { kOwnerRouted };

/// One graph's shard bundle: the deterministic partition, the S×S edge
/// counts, the transport of a distributed rank, and cumulative
/// message-volume accounting. Engines hold a (mutable) pointer;
/// construction is one O(n + m) pass.
///
/// The constructors' `pool` is unused — the engine takes its pool directly
/// (runtime/sync_engine.h) — and stays only so the repository benchmark
/// (perfbench/src/main.cpp) builds unchanged.
class ShardRuntime {
 public:
  /// Runtime over the contiguous S-shard partition. transport == nullptr
  /// runs every shard in process; otherwise its world must equal S.
  ShardRuntime(const Graph& g, int num_shards, ThreadPool* pool,
               std::unique_ptr<SocketTransport> transport = nullptr);
  /// Explicit partition (contiguous or renumbered — graph/renumber.h); the
  /// partition's shard count is authoritative, as above.
  ShardRuntime(const Graph& g, VertexPartition part, ThreadPool* pool,
               std::unique_ptr<SocketTransport> transport = nullptr);

  int num_shards() const { return part_.num_shards(); }
  const VertexPartition& partition() const { return part_; }
  /// Directed edges from shard src's vertices to shard dst's: the messages
  /// of one dense all-neighbors round, and for src != dst the length of the
  /// engine's edge frames between the two ranks (runtime/sync_engine.h).
  std::int64_t edges_between(int src, int dst) const {
    return edges_[slot_index(src, dst)];
  }
  /// The shard this OS process owns (the transport's rank), or -1 when
  /// every shard runs in process. When >= 0, the engine holds state and
  /// inbox slots for this shard only and moves its cross-rank messages
  /// through transport() (runtime/sync_engine.h, DESIGN.md §6).
  int local_shard() const {
    return transport_ != nullptr ? transport_->local_shard() : -1;
  }
  /// The distributed rank's transport; throws ContractViolation in process.
  SocketTransport& transport() const;

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
  /// Cumulative wire bits from shard src to shard dst (message_bits sizing).
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
  /// runtime — whose construction is O(n + m) — can be reused across
  /// independent workloads with per-workload accounting. The partition,
  /// the edge counts and the transport are untouched.
  void reset_counters();

 private:
  std::size_t slot_index(int src, int dst) const {
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(num_shards()) +
           static_cast<std::size_t>(dst);
  }

  VertexPartition part_;
  std::vector<std::int64_t> edges_;  // row-major (src, dst), directed
  std::unique_ptr<SocketTransport> transport_;  // null: every shard local
  std::vector<std::int64_t> sent_;       // row-major (src, dst), cumulative
  std::vector<std::int64_t> sent_bits_;  // same shape, message_bits
  std::int64_t rounds_ = 0;
};

}  // namespace deltacol
