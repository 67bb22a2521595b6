/// \file
/// The synchronous message-passing engine for LOCAL-model algorithms.
///
/// One round: every node sends at most one message over each incident edge,
/// all messages are delivered at once, and every node updates its state from
/// what arrived; 1 round is charged. In CONGEST(B) mode (round_ledger.h) the
/// executed round is unchanged but its charge becomes ceil(heaviest message
/// bits / B): bandwidth is an accounting overlay, never an execution
/// constraint, so CONGEST runs stay bit-identical to LOCAL runs.
///
/// **One slot per directed edge.** The engine keeps a message slot for every
/// directed edge, laid out like the CSR adjacency of the receiver: v's inbox
/// is the slice of slots parallel to g.neighbors(v), so it is already in
/// ascending sender order. A sender names a *port* — an index into
/// g.neighbors(v) — and its message goes straight into the receiver's slot
/// through a twin-edge index built once per engine. A slot carries a message
/// in a round iff its stamp equals the round number, so nothing is staged,
/// merged, sorted or cleared between rounds.
///
/// **Determinism by construction.** Each slot has exactly one writer per
/// round (the sender that owns the port), a receiver reads only its own
/// slice, and the per-round tallies are integer sums and maxima folded after
/// the send sweep. So both sweeps are plain pooled loops whose results are
/// the same for every thread count, shard count and partition (DESIGN.md §6).
///
/// **Shards.** With a ShardRuntime attached, every round records its message
/// counts and MessageSize bits per (owner of sender, owner of receiver) on
/// the runtime. An in-process runtime (transport().local_shard() == -1)
/// changes nothing else. A distributed transport (local_shard() >= 0) makes
/// the engine hold state and inbox slots for its own shard only: messages to
/// another rank's vertices land in that peer's outgoing slots and travel as
/// one frame per peer per round (encode_edge_frame, net/wire_codec.h) — a
/// presence bitmap over the cross edges to the peer, listed by ascending
/// (receiver id, sender id), then the payloads that are present. Both ranks
/// derive that list from (graph, partition), so frames carry no vertex ids.
/// Drivers that sweep or read global state go through num_local() /
/// local_vertex() and the transport's collectives (mis/luby_sync.cpp).
///
/// Callback contract: send(v, state, ports) reads only v's state and the
/// graph and calls ports.send(p, msg) at most once per port p in
/// [0, degree(v)) — a repeated or out-of-range port throws
/// ContractViolation; receive(v, state, inbox) mutates only v's state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "local/round_ledger.h"
#include "net/wire_codec.h"
#include "runtime/mailbox.h"
#include "runtime/message_size.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/page_allocator.h"

namespace deltacol {

template <typename State, typename Msg>
class SyncEngine {
  struct Slot {
    std::uint32_t stamp = 0;  // the round that last wrote this slot
    Msg msg{};
  };

  // One pool chunk's send-side totals, folded after the sweep. The cells
  // are row-major over (owner of sender, owner of receiver).
  struct Tally {
    std::vector<std::int64_t> counts;  // messages per cell
    std::vector<std::int64_t> bits;    // MessageSize bits per cell
    std::int64_t max_bits = 0;         // heaviest single message
  };

  static std::size_t at(int i) { return static_cast<std::size_t>(i); }

 public:
  /// The sending side of one node in one round.
  class Ports {
   public:
    /// Number of ports: the node's degree.
    int size() const { return degree_; }

    /// Sends `msg` to g.neighbors(v)[port]. At most once per port per round.
    void send(int port, Msg msg) {
      DC_REQUIRE(port >= 0 && port < degree_,
                 "SyncEngine: port out of range (a port indexes "
                 "g.neighbors(v))");
      const std::size_t e = at(base_ + port);
      Slot& slot = engine_->slots_[at(engine_->target_[e])];
      DC_REQUIRE(slot.stamp != engine_->round_,
                 "SyncEngine: a node sent twice on one port in one round");
      slot.stamp = engine_->round_;
      const std::int64_t bits = message_bits(msg);
      tally_->max_bits = std::max(tally_->max_bits, bits);
      if (!engine_->pair_.empty()) {
        const std::size_t cell = at(engine_->pair_[e]);
        ++tally_->counts[cell];
        tally_->bits[cell] += bits;
      }
      slot.msg = std::move(msg);
    }

   private:
    friend class SyncEngine;
    Ports(SyncEngine* engine, int base, int degree, Tally* tally)
        : engine_(engine), base_(base), degree_(degree), tally_(tally) {}

    SyncEngine* engine_;
    int base_;
    int degree_;
    Tally* tally_;
  };

  /// The receiving side of one node in one round: iterates (sender, msg)
  /// over the ports that carried a message, in ascending sender order.
  class Inbox {
   public:
    class iterator {
     public:
      std::pair<int, const Msg&> operator*() const {
        return {senders_[q_], slots_[q_].msg};
      }
      iterator& operator++() {
        ++q_;
        skip_absent();
        return *this;
      }
      bool operator==(const iterator& other) const { return q_ == other.q_; }

     private:
      friend class Inbox;
      iterator(const Inbox& in, int q)
          : senders_(in.senders_),
            slots_(in.slots_),
            q_(q),
            end_(in.degree_),
            round_(in.round_) {
        skip_absent();
      }
      void skip_absent() {
        while (q_ < end_ && slots_[q_].stamp != round_) ++q_;
      }

      const int* senders_;
      const Slot* slots_;
      int q_;
      int end_;
      std::uint32_t round_;
    };

    iterator begin() const { return iterator(*this, 0); }
    iterator end() const { return iterator(*this, degree_); }

   private:
    friend class SyncEngine;
    Inbox(const int* senders, const Slot* slots, int degree,
          std::uint32_t round)
        : senders_(senders), slots_(slots), degree_(degree), round_(round) {}

    const int* senders_;
    const Slot* slots_;
    int degree_;
    std::uint32_t round_;
  };

  /// `pool` may be nullptr (rounds run on the calling thread). `shards` may
  /// be nullptr; attaching a runtime built over the same graph records
  /// every round's message volume on it and, when its transport is
  /// distributed, moves cross-rank messages over that transport.
  SyncEngine(const Graph& g, RoundLedger& ledger, std::string phase,
             ThreadPool* pool = nullptr, ShardRuntime* shards = nullptr)
      : graph_(g),
        ledger_(ledger),
        phase_(std::move(phase)),
        pool_(pool),
        shards_(shards) {
    int count = g.num_vertices();
    if (shards_ != nullptr) {
      DC_REQUIRE(shards_->partition().num_vertices() == g.num_vertices(),
                 "shard runtime was built over a different graph");
      local_ = shards_->transport().local_shard();
      if (local_ >= 0) {
        owned_base_ = shards_->partition().begin(local_);
        count = shards_->view(local_).num_owned();
      }
    }
    states_.resize(at(count));
    offsets_.assign(at(count) + 1, 0);
    for (int i = 0; i < count; ++i) {
      offsets_[at(i) + 1] = offsets_[at(i)] + g.degree(local_vertex(i));
    }
    target_.resize(at(offsets_.back()));
    int num_slots = offsets_.back();
    if (owner_local_state()) {
      const GraphView& view = shards_->view(local_);
      peer_begin_.assign(at(shards_->num_shards()) + 1, 0);
      for (int d = 0; d < shards_->num_shards(); ++d) {
        peer_begin_[at(d)] = num_slots;
        if (d != local_) num_slots += static_cast<int>(view.cross_edges(d));
      }
      peer_begin_.back() = num_slots;
    }
    slots_.resize(at(num_slots));
    build_ports();
  }

  /// True when this engine holds owned-only state (a distributed
  /// transport): state(v) is then valid ONLY for vertices the local shard
  /// owns.
  bool owner_local_state() const { return local_ >= 0; }

  /// True when this engine holds v's state: every vertex in process, the
  /// owned vertices on a distributed rank.
  bool holds(int v) const {
    return !owner_local_state() || shards_->partition().shard_of(v) == local_;
  }

  /// Number of vertices whose state this engine holds, and the i-th of
  /// them (in layout order: ascending id in process, the shard's layout
  /// range on a distributed rank).
  int num_local() const { return static_cast<int>(states_.size()); }
  int local_vertex(int i) const {
    return owner_local_state()
               ? shards_->partition().vertex_at(owned_base_ + i)
               : i;
  }

  State& state(int v) { return states_[state_index(v)]; }
  const State& state(int v) const { return states_[state_index(v)]; }

  /// Executes one synchronous round and charges it.
  template <typename Send, typename Receive>
  void round(const Send& send, const Receive& receive) {
    ++round_;
    DC_REQUIRE(round_ != 0, "SyncEngine: round counter wrapped");
    const int count = num_local();
    const int num_shards = shards_ != nullptr ? shards_->num_shards() : 0;
    const std::size_t cells = at(num_shards * num_shards);
    tallies_.resize(at(std::max(
        1, pool_ != nullptr ? pool_->num_range_chunks(count) : 1)));
    for (Tally& t : tallies_) {
      t.counts.assign(cells, 0);
      t.bits.assign(cells, 0);
      t.max_bits = 0;
    }

    // Send sweep: every port writes the one slot its twin index names.
    pooled_ranges(pool_, 0, count, [&](int chunk, int lo, int hi) {
      Tally& tally = tallies_[at(chunk)];
      for (int i = lo; i < hi; ++i) {
        Ports out(this, offsets_[at(i)], offsets_[at(i) + 1] - offsets_[at(i)],
                  &tally);
        send(local_vertex(i), std::as_const(states_[at(i)]), out);
      }
    });
    Tally total{std::vector<std::int64_t>(cells, 0),
                std::vector<std::int64_t>(cells, 0), 0};
    for (const Tally& t : tallies_) {
      for (std::size_t c = 0; c < cells; ++c) {
        total.counts[c] += t.counts[c];
        total.bits[c] += t.bits[c];
      }
      total.max_bits = std::max(total.max_bits, t.max_bits);
    }
    if (owner_local_state()) exchange(total);

    // Receive sweep: each node reads its own adjacency slice of slots.
    pooled_for(pool_, 0, count, [&](int i) {
      const int v = local_vertex(i);
      receive(v, states_[at(i)],
              Inbox(graph_.neighbors(v).data(), slots_.data() + offsets_[at(i)],
                    offsets_[at(i) + 1] - offsets_[at(i)], round_));
    });

    if (shards_ != nullptr) shards_->record_round(total.counts, total.bits);
    if (owner_local_state() && ledger_.congest_bits() > 0) {
      total.max_bits = shards_->transport().allreduce_max(total.max_bits);
    }
    ledger_.charge_message_round(total.max_bits, phase_);
  }

 private:
  // Global vertex id -> local index (states_, offsets_): the inverse of
  // local_vertex. The identity except on a distributed rank, where it is
  // the layout position within the shard — O(1) for contiguous and
  // renumbered partitions alike (graph/partition.h).
  std::size_t state_index(int v) const {
    if (!owner_local_state()) return at(v);
    const int i = shards_->partition().position_of(v) - owned_base_;
    DC_REQUIRE(i >= 0 && i < num_local(),
               "distributed engine: state(v) asked for a vertex this rank "
               "does not own");
    return at(i);
  }

  // The first slot of v's inbox slice (v held by this engine).
  int inbox_of(int v) const { return offsets_[state_index(v)]; }

  // One sweep over the sorted adjacency in ascending (x, y) order fills,
  // for each port this engine holds, the slot it writes and (with a
  // runtime) its tally cell. A held vertex y meets its neighbors x in
  // adjacency order, so a per-vertex cursor yields x's port in y's list
  // without a search. On a distributed rank a cross edge is listed when its
  // receiver comes up as x, so each peer's list comes out in the frame
  // order both ranks derive: ascending (receiver id, sender id).
  void build_ports() {
    const int num_shards = shards_ != nullptr ? shards_->num_shards() : 1;
    const auto owner = [&](int v) {
      return shards_ != nullptr ? shards_->partition().shard_of(v) : 0;
    };
    if (shards_ != nullptr) pair_.resize(target_.size());
    // cursor[i]: the next port (= inbox slot) of local vertex i to visit.
    std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
    std::vector<int> next(peer_begin_);  // distributed: next outgoing slot
    if (owner_local_state()) peer_inbox_.assign(at(num_shards), {});
    for (int d = 0; owner_local_state() && d < num_shards; ++d) {
      if (d == local_) continue;
      peer_inbox_[at(d)].reserve(
          static_cast<std::size_t>(shards_->view(d).cross_edges(local_)));
    }
    for (int x = 0; x < graph_.num_vertices(); ++x) {
      const int sx = owner(x);
      const bool x_held = !owner_local_state() || sx == local_;
      const int first = x_held ? inbox_of(x) : 0;
      const auto nbrs = graph_.neighbors(x);
      for (int q = 0; q < static_cast<int>(nbrs.size()); ++q) {
        const int y = nbrs[at(q)];
        const int sy = owner(y);
        const bool y_held = !owner_local_state() || sy == local_;
        if (x_held && !pair_.empty()) {
          pair_[at(first + q)] = sx * num_shards + sy;
        }
        if (x_held && y_held) {  // x -> y stays local
          target_[at(first + q)] = cursor[state_index(y)]++;
        } else if (x_held) {  // y -> x arrives in y's frame
          peer_inbox_[at(sy)].push_back(first + q);
        } else if (y_held) {  // y -> x leaves in the frame to x's rank
          target_[at(cursor[state_index(y)]++)] = next[at(sx)]++;
        }
      }
    }
    for (int d = 0; owner_local_state() && d < num_shards; ++d) {
      if (d == local_) continue;
      DC_ENSURE(next[at(d)] == peer_begin_[at(d) + 1] &&
                    static_cast<std::int64_t>(peer_inbox_[at(d)].size()) ==
                        shards_->view(d).cross_edges(local_),
                "distributed engine: cross-edge lists disagree with the "
                "shard views");
    }
  }

  // Distributed rank, between the sweeps: one edge frame per peer out, one
  // in. On entry `total` holds this rank's row of the tallies; on return,
  // the full matrices every rank agrees on (the rows ride on the frames).
  void exchange(Tally& total) {
    const int num_shards = shards_->num_shards();
    std::vector<std::vector<std::uint8_t>> frames(at(num_shards));
    for (int d = 0; d < num_shards; ++d) {
      if (d == local_) continue;
      const Slot* out = slots_.data() + peer_begin_[at(d)];
      frames[at(d)] = encode_edge_frame<Msg>(
          at(peer_begin_[at(d) + 1] - peer_begin_[at(d)]),
          [&](std::size_t j) -> const Msg* {
            return out[j].stamp == round_ ? &out[j].msg : nullptr;
          });
    }
    const auto row = [&](const std::vector<std::int64_t>& cells) {
      const auto first = cells.begin() + local_ * num_shards;
      return std::vector<std::int64_t>(first, first + num_shards);
    };
    auto result = shards_->transport().exchange_owned(
        std::move(frames), row(total.counts), row(total.bits));
    DC_ENSURE(static_cast<int>(result.slots.size()) == num_shards &&
                  result.slot_counts.size() == total.counts.size() &&
                  result.slot_bits.size() == total.bits.size(),
              "exchange_owned returned a malformed result");
    for (int s = 0; s < num_shards; ++s) {
      if (s == local_) continue;
      const PageVector<int>& inbox = peer_inbox_[at(s)];
      decode_edge_frame<Msg>(result.slots[at(s)], inbox.size(),
                             [&](std::size_t j, Msg msg) {
                               Slot& slot = slots_[at(inbox[j])];
                               slot.stamp = round_;
                               slot.msg = std::move(msg);
                             });
    }
    total.counts = std::move(result.slot_counts);
    total.bits = std::move(result.slot_bits);
  }

  const Graph& graph_;
  RoundLedger& ledger_;
  std::string phase_;
  ThreadPool* pool_;
  ShardRuntime* shards_;
  int local_ = -1;      // transport().local_shard(); -1 = every vertex local
  int owned_base_ = 0;  // partition().begin(local) on a distributed rank
  // The O(n + m) tables are page-mapped (util/page_allocator.h): an engine
  // lives for one run, often on a thread of its own.
  PageVector<State> states_;  // by local index
  // Local index i's ports and inbox slots are [offsets_[i], offsets_[i+1]).
  PageVector<int> offsets_;
  // Port -> the slot its message lands in: an inbox slot, or (distributed)
  // an outgoing slot of the receiver's rank.
  PageVector<int> target_;
  PageVector<int> pair_;  // port -> tally cell; empty without a runtime
  // Inbox slots, then (distributed) peer d's outgoing slots at
  // [peer_begin_[d], peer_begin_[d + 1]), in frame list order.
  PageVector<Slot> slots_;
  std::vector<int> peer_begin_;
  // Distributed: frame index j from peer s -> the inbox slot it fills.
  std::vector<PageVector<int>> peer_inbox_;
  std::vector<Tally> tallies_;  // one per pool chunk, reused every round
  std::uint32_t round_ = 0;
};

}  // namespace deltacol
