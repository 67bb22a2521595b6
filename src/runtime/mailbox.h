/// \file
/// Shard-to-shard message passing: the execution layer of the shard runtime
/// (the data layer is graph/partition.h; ARCHITECTURE.md "The shard layer").
///
/// Three pieces:
///
///  * `Transport` — the only interface a distributed backend has to
///    implement. It answers "how many shards", "which shard is local"
///    (local_shard(): -1 in process, a rank id when distributed), "run this
///    shard body on every local shard, then barrier", and — for distributed
///    backends — "ship each cross-shard slot of my mailbox row to the rank
///    that owns its destination and give me the slots addressed to me"
///    (exchange_owned), plus the small collectives a distributed run
///    needs. `InProcessTransport` is the in-memory backend: shards are
///    indexed chunks on the existing ThreadPool, so a mailbox handed from
///    shard a to shard b is a pointer, not bytes. `SocketTransport`
///    (net/socket_transport.h) is the TCP backend: each OS process owns one
///    shard, run_shards() runs only the local rank's body, and the bytes
///    move through exchange_owned — nothing above this interface changes
///    (that is the point of this layer).
///
///  * `Mailbox<Msg>` — per-(source-shard, destination-shard) staging slots
///    for one round's envelopes. Posting is row-private (shard s writes only
///    slots (s, *)), draining is column-private (shard d reads only slots
///    (*, d)), so no synchronization beyond the transport barrier is needed.
///
///  * `ShardRuntime` — one graph's shard bundle: partition + views +
///    transport + cumulative message-volume counters, in envelopes AND in
///    wire bits (MessageSize, runtime/message_size.h) — the CONGEST metrics
///    reported by bench_e15/bench_e16 and the serialization sizing a socket
///    Transport needs.
///
/// **The merge-order rule** (the whole determinism argument, DESIGN.md §6):
/// within a source shard, envelopes are staged in ascending sender order
/// (chunk-indexed staging concatenated in chunk order, exactly the
/// ParallelSyncEngine discipline); destination shards drain slots in
/// ascending source-shard order and the engine re-sorts each inbox
/// *stably* by sender. Under the contiguous partition shard-major
/// concatenation already is global ascending sender order — the serial
/// engine's inbox fill order; under a renumbered locality-aware partition
/// (graph/renumber.h) it is not, but the stable sort restores it
/// exactly, because each sender's messages to one destination live in a
/// single slot in emission order. Either way every inbox is byte-identical
/// for every (shards, threads, partition) combination, and a rank that
/// merges only its own column computes exactly its shards' inboxes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/partition.h"
#include "net/wire_codec.h"
#include "runtime/message_size.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

/// Executes shard bodies and moves staged messages between shards. See the
/// file comment for the backend contract.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_shards() const = 0;

  /// Runs body(0) .. body(S-1), one invocation per **local** shard, and
  /// blocks until all completed (a barrier). In-process every shard is
  /// local; a distributed backend (local_shard() >= 0) invokes only its own
  /// rank's body — the other S-1 invocations happen in the peer processes.
  /// Bodies must write only shard-private state; concurrent execution is
  /// allowed but not required, and the lowest shard's exception wins (the
  /// ThreadPool contract), so results never depend on backend scheduling.
  virtual void run_shards(const std::function<void(int)>& body) = 0;

  /// The one shard this OS process owns, or -1 when every shard is local
  /// (the in-process backends). When >= 0, the engine holds state for this
  /// shard only, stages sends for it, ships the cross-shard slots through
  /// exchange_owned, fills the slots addressed to it from the wire
  /// (Mailbox::fill), and merges + receives its own column alone
  /// (DESIGN.md §6, "Distributed rounds").
  virtual int local_shard() const { return -1; }

  /// Result of exchange_owned. `slots[s]` is the encoded
  /// (s, local_shard) slot shipped by rank s (empty at s == local_shard —
  /// the local slot never crossed the wire); `slot_counts` / `slot_bits`
  /// are the reassembled full S×S row-major per-slot tallies (every rank's
  /// posted row, piggybacked on the frames), so ShardRuntime::record_round
  /// sees the same counters the in-process run sees.
  struct OwnedExchange {
    std::vector<std::vector<std::uint8_t>> slots;
    std::vector<std::int64_t> slot_counts;
    std::vector<std::int64_t> slot_bits;
  };

  /// The distributed byte exchange: ships `to_peers[d]` — the encoded
  /// (local_shard, d) slot — point-to-point to rank d only (to_peers at the
  /// local index must be empty: local envelopes stay in the mailbox,
  /// untouched by the codec), together with this rank's posted per-slot
  /// tallies (`row_counts` / `row_bits`, S entries each), and returns the
  /// slots the peers addressed to this rank plus the reassembled global
  /// tallies. Blocks until every peer's frame arrived (the inter-round
  /// barrier). Only meaningful when local_shard() >= 0; the in-process
  /// default has no wire and throws.
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

/// The shared-memory backend: S shards fan out as indexed chunks on the
/// ThreadPool (inline and serial when `pool` is null or single-threaded).
class InProcessTransport final : public Transport {
 public:
  InProcessTransport(int num_shards, ThreadPool* pool);

  int num_shards() const override { return num_shards_; }
  void run_shards(const std::function<void(int)>& body) override;

 private:
  int num_shards_;
  ThreadPool* pool_;
};

/// Shim for perfbench/src/main.cpp only; see
/// ShardRuntime::set_exchange_policy.
enum class ExchangePolicy { kOwnerRouted };

/// One graph's shard bundle: the deterministic partition, each shard's
/// GraphView, the transport, and cumulative message-volume accounting.
/// Engines hold a (mutable) pointer; construction is O(n + m) once.
class ShardRuntime {
 public:
  /// In-process runtime: S shards on `pool` (nullptr runs shards serially).
  ShardRuntime(const Graph& g, int num_shards, ThreadPool* pool);
  /// Custom backend (tests inject scheduling-perverse transports to pin
  /// order-independence; the socket runtime injects SocketTransport).
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
  ThreadPool* pool() const { return pool_; }

  /// No-op kept only so the repository benchmark (perfbench/src/main.cpp),
  /// which still sets the policy, builds unchanged: owner routing is the
  /// only way a distributed round moves envelopes. Delete together with
  /// ExchangePolicy once that caller is gone.
  void set_exchange_policy(ExchangePolicy) {}

  // --- message-volume accounting (per-round CONGEST metrics, bench_e15 /
  // --- bench_e16): cumulative per-(src, dst) envelope counts and wire bits.

  /// Folds one round's per-slot envelope counts and wire-bit totals (both
  /// row-major, S*S entries — Mailbox::slot_counts() / slot_bits()). Called
  /// by the engine on the calling thread after the receive barrier.
  void record_round(const std::vector<std::int64_t>& slot_counts,
                    const std::vector<std::int64_t>& slot_bit_totals);

  std::int64_t rounds_recorded() const { return rounds_; }
  /// Cumulative envelopes staged in slot (src, dst).
  std::int64_t slot_messages(int src, int dst) const {
    return sent_[slot_index(src, dst)];
  }
  /// Cumulative wire bits staged in slot (src, dst) (MessageSize sizing —
  /// the bytes a serializing transport would frame are ceil(bits / 8)).
  std::int64_t slot_bits(int src, int dst) const {
    return sent_bits_[slot_index(src, dst)];
  }
  std::int64_t total_messages() const;
  std::int64_t total_bits() const;
  /// Messages that crossed a shard boundary (off-diagonal slots) — the part
  /// a distributed transport pays for.
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
  ThreadPool* pool_;
  std::vector<std::int64_t> sent_;       // row-major (src, dst), cumulative
  std::vector<std::int64_t> sent_bits_;  // same shape, MessageSize bits
  std::int64_t rounds_ = 0;
};

/// Per-(source-shard, destination-shard) staging slots for one round.
/// Envelope order within a slot is the poster's responsibility (ascending
/// sender — see the merge-order rule in the file comment); routing by
/// destination owner is this class's.
template <typename Msg>
class Mailbox {
 public:
  struct Envelope {
    int to;
    int from;
    Msg msg;
  };

  explicit Mailbox(const VertexPartition* part)
      : part_(part),
        num_shards_(part->num_shards()),
        slots_(static_cast<std::size_t>(num_shards_) *
               static_cast<std::size_t>(num_shards_)),
        slot_counts_(slots_.size(), 0),
        slot_bits_(slots_.size(), 0),
        filled_(slots_.size(), 0) {}

  int num_shards() const { return num_shards_; }

  /// Stages one envelope from `from` (owned by src_shard) to `to`; routed
  /// to slot (src_shard, owner(to)). Only src_shard may call this (row
  /// privacy — which also makes the per-slot tallies race-free). The
  /// envelope's wire size is accounted at post time via MessageSize<Msg>.
  void post(int src_shard, int from, int to, Msg msg) {
    const int dst_shard = part_->shard_of(to);
    const std::size_t idx = slot_index(src_shard, dst_shard);
    slot_bits_[idx] += message_bits(msg);
    ++slot_counts_[idx];
    slots_[idx].push_back(Envelope{to, from, std::move(msg)});
  }

  /// Installs a whole slot at once — the remote-fill path of a distributed
  /// backend: rank d decodes the bytes rank s shipped and fills slot (s, d).
  /// Envelope order must be the sender's post order — decode_slot
  /// preserves it — so the shard-major merge rule survives serialization.
  /// The envelopes are accounted exactly as a local post would have
  /// (MessageSize is a pure function of the value, so both sides of the
  /// wire tally identical counters). A slot may be filled at most once per
  /// round, and never on top of locally posted envelopes: double delivery
  /// is a transport bug this assertion turns into a loud failure instead of
  /// silently duplicated messages.
  void fill(int src_shard, int dst_shard, std::vector<Envelope> envelopes) {
    const std::size_t idx = slot_index(src_shard, dst_shard);
    DC_REQUIRE(!filled_[idx], "mailbox slot filled twice in one round");
    DC_REQUIRE(slots_[idx].empty(),
               "mailbox fill would clobber locally posted envelopes");
    filled_[idx] = 1;
    for (const Envelope& e : envelopes) {
      slot_bits_[idx] += message_bits(e.msg);
    }
    slot_counts_[idx] += static_cast<std::int64_t>(envelopes.size());
    slots_[idx] = std::move(envelopes);
  }

  /// Serializes the off-diagonal slots of `src_shard`'s row for the
  /// distributed exchange (Transport::exchange_owned): entry d is the
  /// encoded (src_shard, d) slot for d != src_shard, and the entry at
  /// src_shard stays EMPTY — the local slot's envelopes are left in place,
  /// never touching the codec (an invariant a distributed transport must
  /// not break; DESIGN.md §6, "Distributed rounds"). The encoded
  /// slots are copies: the off-diagonal envelopes stay staged too, so a
  /// transport failure mid-exchange never loses the round. At most one
  /// exchange per round: a second call before clear() is a double-exchange
  /// transport bug and throws.
  std::vector<std::vector<std::uint8_t>> encode_owned_row(int src_shard) {
    DC_REQUIRE(!owner_exchanged_,
               "distributed exchange ran twice in one round "
               "(encode_owned_row before clear())");
    owner_exchanged_ = true;
    std::vector<std::vector<std::uint8_t>> row(
        static_cast<std::size_t>(num_shards_));
    for (int d = 0; d < num_shards_; ++d) {
      if (d == src_shard) continue;  // the local slot never crosses the wire
      row[static_cast<std::size_t>(d)] = encode_slot<Msg>(slot(src_shard, d));
    }
    return row;
  }

  /// Moves one slot's envelopes out (the drain side of the receive barrier),
  /// leaving the slot empty. The round's tallies (slot_counts / slot_bits)
  /// are unaffected — they describe what was staged this round, not what is
  /// currently buffered — so ShardRuntime::record_round may run after the
  /// receive has drained everything.
  std::vector<Envelope> drain(int src_shard, int dst_shard) {
    return std::exchange(slots_[slot_index(src_shard, dst_shard)], {});
  }

  std::vector<Envelope>& slot(int src, int dst) {
    return slots_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(num_shards_) +
                  static_cast<std::size_t>(dst)];
  }
  const std::vector<Envelope>& slot(int src, int dst) const {
    return slots_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(num_shards_) +
                  static_cast<std::size_t>(dst)];
  }

  /// Per-slot envelope counts of this round, row-major (feeds
  /// ShardRuntime::record_round). Accumulated at post/fill time, so the
  /// counts survive drain().
  const std::vector<std::int64_t>& slot_counts() const { return slot_counts_; }

  /// Per-slot wire-bit totals of this round, row-major (the byte-accounting
  /// companion of slot_counts(), accumulated at post/fill time).
  const std::vector<std::int64_t>& slot_bits() const { return slot_bits_; }

  /// Empties every slot, zeroes the tallies and re-arms the fill-once and
  /// exchange-once guards, keeping capacity (called at round start).
  void clear() {
    for (auto& s : slots_) s.clear();
    for (auto& c : slot_counts_) c = 0;
    for (auto& b : slot_bits_) b = 0;
    for (auto& f : filled_) f = 0;
    owner_exchanged_ = false;
  }

 private:
  std::size_t slot_index(int src, int dst) const {
    return static_cast<std::size_t>(src) *
               static_cast<std::size_t>(num_shards_) +
           static_cast<std::size_t>(dst);
  }

  const VertexPartition* part_;
  int num_shards_;
  std::vector<std::vector<Envelope>> slots_;
  std::vector<std::int64_t> slot_counts_;  // row-major, this round's staged
  std::vector<std::int64_t> slot_bits_;    // same shape, MessageSize bits
  std::vector<std::uint8_t> filled_;       // fill-once-per-round guards
  bool owner_exchanged_ = false;           // exchange-once-per-round guard
};

/// Shard-major sweep: body(v) for every vertex, with each shard's owned set
/// as one placement unit on the pool (the unit a distributed runtime would
/// pin to a rank). Falls back to pooled_for when num_shards <= 1. The body
/// must write only v-private state — the same contract as pooled_for — so
/// every (num_shards, threads, partition) combination yields identical
/// results; only placement and wall-clock change.
template <typename Body>
void sharded_for(ThreadPool* pool, const VertexPartition& part,
                 const Body& body) {
  if (part.num_shards() <= 1) {
    pooled_for(pool, 0, part.num_vertices(), body);
    return;
  }
  const auto shard_body = [&part, &body](int s) {
    const int count = part.size(s);
    for (int i = 0; i < count; ++i) body(part.owned_vertex(s, i));
  };
  if (pool != nullptr) {
    pool->parallel_chunks(part.num_shards(), shard_body);
  } else {
    for (int s = 0; s < part.num_shards(); ++s) shard_body(s);
  }
}

}  // namespace deltacol
