/// \file
/// Multi-threaded, shard-ready synchronous message-passing engine.
///
/// Same execution model and callback contract as local/sync_engine.h — one
/// synchronous LOCAL round = all nodes send, all messages delivered, all
/// nodes receive, 1 round charged — with two execution strategies on top of
/// the serial reference:
///
/// **Chunked (no ShardRuntime attached).** Each round runs in two parallel
/// barriers on a ThreadPool:
///
///   1. **Parallel send.** Contiguous sender ranges are dispatched as chunks;
///      each chunk stages its messages in a private outbox, in sender order.
///   2. **Deterministic merge.** Chunk outboxes are concatenated in chunk
///      order (= ascending sender order, exactly the order the serial engine
///      fills inboxes in) and then each inbox is sorted by sender with the
///      same comparator the serial engine uses.
///   3. **Parallel receive.** Every node consumes its inbox independently.
///
/// **Sharded (a ShardRuntime attached).** The round is expressed against
/// the shard layer (graph/partition.h + runtime/mailbox.h): every send goes
/// through the per-(source-shard, destination-shard) mailbox and every
/// barrier is a Transport::run_shards call. Transport::local_shard() picks
/// one of two shapes; nothing else is configurable:
///
///   1. **Sharded send.** Each local source shard sweeps its owned vertices
///      (chunk-staged on the pool, concatenated in chunk order — the same
///      discipline as above) and posts envelopes into its mailbox row.
///   2. **In process (local_shard() == -1): full state.** The run_shards
///      barrier already published the shared-memory mailbox. Each
///      destination shard drains its mailbox column in ascending
///      source-shard order, sorts its owned inboxes, and receives.
///   3. **Distributed (local_shard() >= 0): owned-only state.** The engine
///      holds state for the local shard only (states_ sized to
///      GraphView::num_owned(), indexed by owned position), encodes only
///      the off-diagonal slots of its row (Mailbox::encode_owned_row — the
///      diagonal never touches the codec), ships each to the rank that owns
///      its destination (Transport::exchange_owned), fills the slots
///      addressed to it, and merges + receives only its own column.
///      Per-rank work is O(n/S + halo) and the wire carries only the
///      cross-shard payload. Drivers that sweep or read global state must
///      consult owner_local_state() and use the transport's
///      allreduce/gather collectives (mis/luby_sync.cpp is the model).
///
/// Both shapes merge a column by the same rule, and a shard's merged inbox
/// never depends on any other shard's local state, so a rank that merges
/// only its own column computes exactly the inboxes the in-process run
/// computes for that shard (DESIGN.md §6, "Distributed rounds").
///
/// Every staging path presents one sender's messages to one destination in
/// emission order, and the per-inbox merge sorts *stably* by sender, so the
/// inbox contents handed to receive() are byte-for-byte what SyncEngine
/// produces — for contiguous partitions (where shard-major draining already
/// yields globally ascending senders) and for renumbered locality-aware
/// partitions alike (where it does not; DESIGN.md §6). Colorings, ledgers
/// and stats are bit-identical for every (shards, threads, partition)
/// combination, including pool == nullptr and no runtime (the inline serial
/// path). The test suite pins this equivalence down (tests/test_runtime.cpp,
/// tests/test_mailbox.cpp, tests/test_renumber.cpp).
///
/// Additional contract on the callbacks (trivially satisfied by per-node
/// LOCAL algorithms): send(v, state) reads only v's state and the graph;
/// receive(v, state, inbox) mutates only v's state.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "local/round_ledger.h"
#include "net/wire_codec.h"
#include "runtime/mailbox.h"
#include "runtime/message_size.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

template <typename State, typename Msg>
class ParallelSyncEngine {
 public:
  using Outbox = std::vector<std::pair<int, Msg>>;
  using SendFn = std::function<Outbox(int, const State&)>;
  using Inbox = std::vector<std::pair<int, Msg>>;
  using RecvFn = std::function<void(int, State&, const Inbox&)>;

  /// `pool` may be nullptr (or single-threaded): rounds then execute on the
  /// calling thread, identically to SyncEngine. `shards` may be nullptr:
  /// rounds then use the chunked strategy; attaching a runtime (built over
  /// the same graph) routes every round through its mailbox + transport and
  /// records per-round message volume on it.
  ParallelSyncEngine(const Graph& g, RoundLedger& ledger, std::string phase,
                     ThreadPool* pool = nullptr,
                     ShardRuntime* shards = nullptr)
      : graph_(g),
        ledger_(ledger),
        phase_(std::move(phase)),
        pool_(pool),
        shards_(shards) {
    if (shards_ != nullptr) {
      DC_REQUIRE(shards_->partition().num_vertices() == g.num_vertices(),
                 "shard runtime was built over a different graph");
      mailbox_.emplace(&shards_->partition());
      local_shard_ = shards_->transport().local_shard();
      if (local_shard_ >= 0) {
        owned_base_ = shards_->partition().begin(local_shard_);
      }
    }
    // Distributed ranks hold state for their OWN shard only — O(n/S) per
    // rank, allocated from the GraphView's owned count; in-process runs keep
    // the full per-vertex array. Halo values arrive as messages, never as
    // state.
    states_.resize(static_cast<std::size_t>(
        owner_local_state() ? shards_->view(local_shard_).num_owned()
                            : g.num_vertices()));
  }

  const Graph& graph() const { return graph_; }

  /// True when this engine holds owned-only state (a distributed
  /// transport): state(v) is then valid ONLY for vertices the local shard
  /// owns.
  bool owner_local_state() const { return local_shard_ >= 0; }

  State& state(int v) { return states_[state_index(v)]; }
  const State& state(int v) const { return states_[state_index(v)]; }

  /// Executes one synchronous round over the whole graph and charges 1 round.
  void round(const SendFn& send, const RecvFn& receive) {
    if (shards_ != nullptr) {
      round_sharded(send, receive);
      return;
    }
    const int n = graph_.num_vertices();
    std::vector<Inbox> inboxes(static_cast<std::size_t>(n));

    const bool congest = ledger_.congest_bits() > 0;

    if (pool_ == nullptr || pool_->num_threads() <= 1) {
      // Serial path: the reference semantics (mirrors SyncEngine::round).
      for (int v = 0; v < n; ++v) {
        deliver(v, send(v, states_[static_cast<std::size_t>(v)]), inboxes);
      }
      std::int64_t max_edge_bits = 0;
      for (auto& inbox : inboxes) {
        sort_inbox(inbox);
        if (congest) {
          max_edge_bits =
              std::max(max_edge_bits, max_edge_bits_in_inbox(inbox));
        }
      }
      for (int v = 0; v < n; ++v) {
        receive(v, states_[static_cast<std::size_t>(v)],
                inboxes[static_cast<std::size_t>(v)]);
      }
      ledger_.charge_message_round(max_edge_bits, phase_);
      return;
    }

    // Barrier 1: parallel send into per-chunk staging buffers.
    std::vector<std::vector<Envelope>> staged(
        static_cast<std::size_t>(pool_->num_range_chunks(n)));
    pool_->parallel_ranges(0, n, [&](int chunk, int lo, int hi) {
      stage_range(send, lo, hi, staged[static_cast<std::size_t>(chunk)]);
    });
    // Deterministic merge: chunk order == ascending sender order, matching
    // the serial fill exactly.
    for (auto& buf : staged) {
      for (auto& e : buf) {
        inboxes[static_cast<std::size_t>(e.to)].emplace_back(e.from,
                                                             std::move(e.msg));
      }
    }
    // CONGEST accounting alongside the sort: a v-private write per vertex,
    // folded by max below — order-free, so the charge is thread-invariant.
    std::vector<std::int64_t> edge_bits(
        congest ? static_cast<std::size_t>(n) : 0, 0);
    pool_->parallel_for(0, n, [&](int v) {
      sort_inbox(inboxes[static_cast<std::size_t>(v)]);
      if (congest) {
        edge_bits[static_cast<std::size_t>(v)] =
            max_edge_bits_in_inbox(inboxes[static_cast<std::size_t>(v)]);
      }
    });
    std::int64_t max_edge_bits = 0;
    for (std::int64_t b : edge_bits) max_edge_bits = std::max(max_edge_bits, b);

    // Barrier 2: parallel receive; each node touches only its own state.
    pool_->parallel_for(0, n, [&](int v) {
      receive(v, states_[static_cast<std::size_t>(v)],
              inboxes[static_cast<std::size_t>(v)]);
    });
    ledger_.charge_message_round(max_edge_bits, phase_);
  }

 private:
  struct Envelope {
    int to;
    int from;
    Msg msg;
  };

  // Global vertex id -> index into states_. The identity except on a
  // distributed rank, where states_ is indexed by owned position:
  // position_of(v) - begin(local) — O(1) for contiguous and renumbered
  // partitions alike (graph/partition.h).
  std::size_t state_index(int v) const {
    if (!owner_local_state()) return static_cast<std::size_t>(v);
    const int i = shards_->partition().position_of(v) - owned_base_;
    DC_REQUIRE(i >= 0 && i < static_cast<int>(states_.size()),
               "distributed engine: state(v) asked for a vertex this rank "
               "does not own");
    return static_cast<std::size_t>(i);
  }

  // Stable by design: every staging path (serial deliver, chunk replay,
  // mailbox slot drain) presents one sender's messages to one destination in
  // emission order, so a *stable* sort by sender yields "ascending sender,
  // ties in emission order" — the serial fill order — no matter how the
  // pre-sort concatenation was arranged. This is what makes renumbered
  // (non-ascending-range) partitions merge identically to contiguous ones
  // (DESIGN.md §6).
  static void sort_inbox(Inbox& inbox) {
    std::stable_sort(
        inbox.begin(), inbox.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  void deliver(int from, Outbox&& out, std::vector<Inbox>& inboxes) {
    for (auto& [to, msg] : out) {
      DC_REQUIRE(graph_.has_edge(from, to),
                 "LOCAL model: messages only travel along edges");
      inboxes[static_cast<std::size_t>(to)].emplace_back(from, std::move(msg));
    }
  }

  // Sends for the contiguous sender range [lo, hi) into `buf`, in sender
  // order (the staging primitive of the chunked strategy).
  void stage_range(const SendFn& send, int lo, int hi,
                   std::vector<Envelope>& buf) {
    for (int v = lo; v < hi; ++v) {
      for (auto& [to, msg] : send(v, states_[static_cast<std::size_t>(v)])) {
        DC_REQUIRE(graph_.has_edge(v, to),
                   "LOCAL model: messages only travel along edges");
        buf.push_back(Envelope{to, v, std::move(msg)});
      }
    }
  }

  // Sends for the owned-index range [ilo, ihi) of a shard view into `buf`,
  // in ascending owned order (== ascending original sender id; the sharded
  // strategy's staging primitive — identical to stage_range over
  // [begin, end) when the partition is contiguous).
  void stage_owned(const SendFn& send, const GraphView& view, int ilo,
                   int ihi, std::vector<Envelope>& buf) {
    for (int i = ilo; i < ihi; ++i) {
      const int v = view.owned_vertex(i);
      for (auto& [to, msg] : send(v, state(v))) {
        DC_REQUIRE(graph_.has_edge(v, to),
                   "LOCAL model: messages only travel along edges");
        buf.push_back(Envelope{to, v, std::move(msg)});
      }
    }
  }

  // The sharded strategy (see file comment): a sharded send, then either
  // the in-process merge + receive below or the distributed continuation
  // (round_distributed). All inter-shard data flows through the mailbox.
  void round_sharded(const SendFn& send, const RecvFn& receive) {
    const int n = graph_.num_vertices();
    const int num_shards = shards_->num_shards();
    const bool congest = ledger_.congest_bits() > 0;
    Transport& transport = shards_->transport();
    Mailbox<Msg>& mailbox = *mailbox_;
    mailbox.clear();

    // Barrier 1: each local source shard stages its owned vertices (chunked
    // on the pool, nested region) and posts into its mailbox row in
    // ascending owned order — ascending original sender id under every
    // partition, because owned lists ascend by construction
    // (graph/partition.cpp).
    transport.run_shards([&](int s) {
      const GraphView& view = shards_->view(s);
      const int count = view.num_owned();
      const int num_chunks =
          pool_ != nullptr ? pool_->num_range_chunks(count) : 1;
      std::vector<std::vector<Envelope>> staged(
          static_cast<std::size_t>(std::max(1, num_chunks)));
      pooled_ranges(pool_, 0, count, [&](int chunk, int clo, int chi) {
        stage_owned(send, view, clo, chi,
                    staged[static_cast<std::size_t>(chunk)]);
      });
      // Chunk ranges ascend, so replaying chunk-major keeps sender order.
      for (auto& buf : staged) {
        for (auto& e : buf) {
          mailbox.post(s, e.from, e.to, std::move(e.msg));
        }
      }
    });

    if (owner_local_state()) {
      round_distributed(receive, congest, num_shards, transport, mailbox);
      return;
    }

    std::vector<Inbox> inboxes(static_cast<std::size_t>(n));
    // Per-vertex CONGEST loads: each destination shard writes only its owned
    // range (shard-private), the fold below runs after the barrier.
    std::vector<std::int64_t> edge_bits(
        congest ? static_cast<std::size_t>(n) : 0, 0);

    // Barrier 2: each destination shard drains its mailbox column in
    // ascending source-shard order, then sorts and receives its owned
    // vertices. The stable per-inbox sort restores ascending sender order
    // under every partition (DESIGN.md §6).
    transport.run_shards([&](int d) {
      const GraphView& view = shards_->view(d);
      for (int s = 0; s < num_shards; ++s) {
        for (auto& e : mailbox.drain(s, d)) {
          inboxes[static_cast<std::size_t>(e.to)].emplace_back(
              e.from, std::move(e.msg));
        }
      }
      pooled_for(pool_, 0, view.num_owned(), [&](int i) {
        const int v = view.owned_vertex(i);
        sort_inbox(inboxes[static_cast<std::size_t>(v)]);
        if (congest) {
          edge_bits[static_cast<std::size_t>(v)] =
              max_edge_bits_in_inbox(inboxes[static_cast<std::size_t>(v)]);
        }
      });
      pooled_for(pool_, 0, view.num_owned(), [&](int i) {
        const int v = view.owned_vertex(i);
        receive(v, states_[static_cast<std::size_t>(v)],
                inboxes[static_cast<std::size_t>(v)]);
      });
    });

    // Volume + CONGEST folds on the calling thread (the tallies are
    // accumulated at post time, so they survive the drains above). The max
    // fold is order-free, so the charge is (shards, threads)-invariant.
    shards_->record_round(mailbox.slot_counts(), mailbox.slot_bits());
    std::int64_t max_edge_bits = 0;
    for (std::int64_t b : edge_bits) max_edge_bits = std::max(max_edge_bits, b);
    ledger_.charge_message_round(max_edge_bits, phase_);
  }

  // The distributed continuation of round_sharded (after Barrier 1 has
  // staged the local rank's row). Why a rank-local merge cannot move a byte
  // (DESIGN.md §6, "Distributed rounds"): shard d's inbox contents are
  // exactly the envelopes in column (*, d) — slots other ranks addressed
  // to d plus d's own diagonal slot — and the shard-major stable merge
  // orders them using only (source shard, emission position, sender id),
  // never any other shard's local state. So merging ONLY the local column,
  // with the diagonal slot never serialized and the off-diagonal slots
  // arriving point-to-point, reproduces byte-for-byte the inboxes the
  // in-process run computes for this shard. The piggybacked tally rows
  // reassemble the full S×S counters, so record_round and the CONGEST max
  // fold (allreduce_max, order-free) charge exactly what the in-process
  // run charges.
  void round_distributed(const RecvFn& receive, bool congest, int num_shards,
                         Transport& transport, Mailbox<Msg>& mailbox) {
    const int local = local_shard_;
    const GraphView& view = shards_->view(local);
    const int owned = view.num_owned();

    // Our posted row tallies ride along with the slots, so every rank can
    // rebuild the full matrix without a second collective.
    std::vector<std::int64_t> row_counts(static_cast<std::size_t>(num_shards));
    std::vector<std::int64_t> row_bits(static_cast<std::size_t>(num_shards));
    {
      const auto& counts = mailbox.slot_counts();
      const auto& bits = mailbox.slot_bits();
      for (int d = 0; d < num_shards; ++d) {
        const std::size_t idx = static_cast<std::size_t>(local) *
                                    static_cast<std::size_t>(num_shards) +
                                static_cast<std::size_t>(d);
        row_counts[static_cast<std::size_t>(d)] = counts[idx];
        row_bits[static_cast<std::size_t>(d)] = bits[idx];
      }
    }
    auto result = transport.exchange_owned(mailbox.encode_owned_row(local),
                                           std::move(row_counts),
                                           std::move(row_bits));
    DC_ENSURE(static_cast<int>(result.slots.size()) == num_shards &&
                  static_cast<int>(result.slot_counts.size()) ==
                      num_shards * num_shards &&
                  static_cast<int>(result.slot_bits.size()) ==
                      num_shards * num_shards,
              "exchange_owned returned a malformed result");
    for (int s = 0; s < num_shards; ++s) {
      if (s == local) continue;
      mailbox.fill(s, local,
                   decode_slot<Msg, typename Mailbox<Msg>::Envelope>(
                       result.slots[static_cast<std::size_t>(s)]));
    }

    // Rank-local merge + receive: only column (*, local), only owned
    // inboxes — indexed by owned position, the same index states_ uses.
    std::vector<Inbox> inboxes(static_cast<std::size_t>(owned));
    std::vector<std::int64_t> edge_bits(
        congest ? static_cast<std::size_t>(owned) : 0, 0);
    for (int s = 0; s < num_shards; ++s) {
      for (auto& e : mailbox.drain(s, local)) {
        inboxes[state_index(e.to)].emplace_back(e.from, std::move(e.msg));
      }
    }
    pooled_for(pool_, 0, owned, [&](int i) {
      sort_inbox(inboxes[static_cast<std::size_t>(i)]);
      if (congest) {
        edge_bits[static_cast<std::size_t>(i)] =
            max_edge_bits_in_inbox(inboxes[static_cast<std::size_t>(i)]);
      }
    });
    pooled_for(pool_, 0, owned, [&](int i) {
      receive(view.owned_vertex(i), states_[static_cast<std::size_t>(i)],
              inboxes[static_cast<std::size_t>(i)]);
    });

    shards_->record_round(result.slot_counts, result.slot_bits);
    std::int64_t local_max = 0;
    for (std::int64_t b : edge_bits) local_max = std::max(local_max, b);
    const std::int64_t max_edge_bits =
        congest ? transport.allreduce_max(local_max) : 0;
    ledger_.charge_message_round(max_edge_bits, phase_);
  }

  const Graph& graph_;
  RoundLedger& ledger_;
  std::string phase_;
  ThreadPool* pool_;
  ShardRuntime* shards_;
  int local_shard_ = -1;  // transport.local_shard(), cached at construction
  int owned_base_ = 0;    // partition().begin(local) on a distributed rank
  std::optional<Mailbox<Msg>> mailbox_;
  std::vector<State> states_;
};

}  // namespace deltacol
