// Synchronous message-passing execution for LOCAL-model algorithms.
//
// A SyncEngine holds per-node state and executes synchronous rounds: first
// every node produces messages for its neighbors from its current state,
// then all messages are delivered simultaneously and every node updates its
// state from its inbox. This is exactly the LOCAL model round structure
// (Msg is any value type). When the ledger is in CONGEST(B) mode
// (round_ledger.h) the executed round is unchanged but its charge becomes
// ceil(heaviest-edge-bits / B): bandwidth is an accounting overlay, never an
// execution constraint, so CONGEST runs stay bit-identical to LOCAL runs.
//
// Since the shard layer landed, this engine is written as the S = 1
// instance of the partitioned execution model: the node sweep runs over a
// whole-graph GraphView and every send is staged through a single-slot
// Mailbox before delivery (graph/partition.h, runtime/mailbox.h). With one
// shard the staging slot is filled and drained in ascending sender order —
// the exact fill order the pre-shard engine used — so this remains the
// byte-level reference semantics that ParallelSyncEngine (any chunking, any
// shard count) must reproduce, while sharing the same vocabulary the
// sharded engine is expressed in.
//
// Algorithms that are naturally per-node (Luby's MIS, trial list coloring,
// Linial's coloring) run through this engine; structural steps with large
// radii use NeighborhoodOracle instead (see round_ledger.h for why both are
// faithful).
#pragma once

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"
#include "local/round_ledger.h"
#include "runtime/mailbox.h"
#include "runtime/message_size.h"
#include "util/check.h"

namespace deltacol {

template <typename State, typename Msg>
class SyncEngine {
 public:
  // Messages a node sends in one round: (neighbor, payload) pairs. Sending
  // to a non-neighbor is a contract violation (the LOCAL model only has
  // links to neighbors).
  using Outbox = std::vector<std::pair<int, Msg>>;
  // send(v, state) -> messages for neighbors of v.
  using SendFn = std::function<Outbox(int, const State&)>;
  // receive(v, state, inbox): update v's state from delivered messages.
  // Inbox entries are (sender, payload), sorted by sender.
  using Inbox = std::vector<std::pair<int, Msg>>;
  using RecvFn = std::function<void(int, State&, const Inbox&)>;

  SyncEngine(const Graph& g, RoundLedger& ledger, std::string phase)
      : graph_(g),
        ledger_(ledger),
        phase_(std::move(phase)),
        partition_(VertexPartition::contiguous(g.num_vertices(), 1)),
        view_(g, partition_, 0),
        mailbox_(&partition_),
        states_(static_cast<std::size_t>(g.num_vertices())) {}

  const Graph& graph() const { return graph_; }

  State& state(int v) { return states_[static_cast<std::size_t>(v)]; }
  const State& state(int v) const { return states_[static_cast<std::size_t>(v)]; }

  // Executes one synchronous round over the whole graph and charges 1 round.
  void round(const SendFn& send, const RecvFn& receive) {
    const int n = view_.num_owned();
    std::vector<Inbox> inboxes(static_cast<std::size_t>(n));
    // Send phase: the single shard sweeps its owned range in ascending id
    // order, staging through its mailbox row.
    mailbox_.clear();
    for (int v = view_.owned_begin(); v < view_.owned_end(); ++v) {
      for (auto& [to, msg] : send(v, states_[static_cast<std::size_t>(v)])) {
        DC_REQUIRE(graph_.has_edge(v, to),
                   "LOCAL model: messages only travel along edges");
        mailbox_.post(0, v, to, std::move(msg));
      }
    }
    // Merge phase: drain slot (0, 0) — already in ascending sender order —
    // then sort each inbox by sender.
    for (auto& e : mailbox_.slot(0, 0)) {
      inboxes[static_cast<std::size_t>(e.to)].emplace_back(e.from,
                                                           std::move(e.msg));
    }
    // Stable, matching ParallelSyncEngine::sort_inbox: ties (one sender,
    // several messages to one destination) keep emission order on every
    // execution path, so the parallel/sharded/renumbered merges reproduce
    // this exact sequence (DESIGN.md §6).
    for (auto& inbox : inboxes) {
      std::stable_sort(
          inbox.begin(), inbox.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    // CONGEST accounting (round_ledger.h): the heaviest directed edge sets
    // the round's cost. Pure reads of the merged inboxes — computed only in
    // congest mode, and never touching merge order or receive semantics.
    std::int64_t max_edge_bits = 0;
    if (ledger_.congest_bits() > 0) {
      for (const auto& inbox : inboxes) {
        max_edge_bits = std::max(max_edge_bits, max_edge_bits_in_inbox(inbox));
      }
    }
    // Receive phase over the owned range.
    for (int v = view_.owned_begin(); v < view_.owned_end(); ++v) {
      receive(v, states_[static_cast<std::size_t>(v)],
              inboxes[static_cast<std::size_t>(v)]);
    }
    ledger_.charge_message_round(max_edge_bits, phase_);
  }

 private:
  const Graph& graph_;
  RoundLedger& ledger_;
  std::string phase_;
  VertexPartition partition_;
  GraphView view_;
  Mailbox<Msg> mailbox_;
  std::vector<State> states_;
};

}  // namespace deltacol
