// The shard execution layer (runtime/mailbox.h): Transport semantics,
// mailbox routing + shard-major merge order, the sharded
// ParallelSyncEngine path (bit-identical to the serial engine for every
// shards x threads x B combination, even under a scheduling-perverse custom
// Transport), message-volume accounting against GraphView cross-edge
// counts, and the drain/fill/encode surface a distributed transport drives.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/generators.h"
#include "graph/partition.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "runtime/mailbox.h"
#include "runtime/parallel_sync_engine.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(InProcessTransport, RunsEveryShardExactlyOnce) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    InProcessTransport transport(7, threads > 1 ? &pool : nullptr);
    EXPECT_EQ(transport.num_shards(), 7);
    std::vector<int> hits(7, 0);
    transport.run_shards([&](int s) { ++hits[static_cast<std::size_t>(s)]; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(Mailbox, RoutesByDestinationOwnerAndKeepsPostOrder) {
  const VertexPartition part = VertexPartition::contiguous(10, 3);
  // Shards: [0,3), [3,6), [6,10).
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/4, 100);  // -> slot (0, 1)
  mb.post(0, /*from=*/1, /*to=*/9, 101);  // -> slot (0, 2)
  mb.post(0, /*from=*/2, /*to=*/4, 102);  // -> slot (0, 1), after the first
  mb.post(2, /*from=*/7, /*to=*/0, 103);  // -> slot (2, 0)
  ASSERT_EQ(mb.slot(0, 1).size(), 2u);
  EXPECT_EQ(mb.slot(0, 1)[0].from, 1);
  EXPECT_EQ(mb.slot(0, 1)[0].msg, 100);
  EXPECT_EQ(mb.slot(0, 1)[1].from, 2);
  EXPECT_EQ(mb.slot(0, 1)[1].msg, 102);
  ASSERT_EQ(mb.slot(0, 2).size(), 1u);
  EXPECT_EQ(mb.slot(0, 2)[0].to, 9);
  ASSERT_EQ(mb.slot(2, 0).size(), 1u);
  EXPECT_EQ(mb.slot(2, 0)[0].msg, 103);
  EXPECT_TRUE(mb.slot(1, 1).empty());
  const auto counts = mb.slot_counts();
  ASSERT_EQ(counts.size(), 9u);
  EXPECT_EQ(counts[0 * 3 + 1], 2);
  EXPECT_EQ(counts[2 * 3 + 0], 1);
  mb.clear();
  EXPECT_TRUE(mb.slot(0, 1).empty());
}

// One dense flood round through the sharded engine: every node sends its id
// to every neighbor. Pins (a) inbox contents = sorted neighbor list,
// (b) per-slot volume = GraphView cross/internal edge counts.
TEST(ShardedEngine, FloodRoundDeliversExactlyTheAdjacency) {
  Rng rng(7);
  const Graph g = random_graph_max_degree(120, 6, 1.8, rng);
  const int n = g.num_vertices();
  for (int num_shards : {1, 2, 4}) {
    ThreadPool pool(4);
    ShardRuntime shards(g, num_shards, &pool);
    RoundLedger ledger;
    struct State {
      std::vector<int> heard;
    };
    ParallelSyncEngine<State, int> engine(g, ledger, "flood", &pool, &shards);
    engine.round(
        [&g](int v, const State&) {
          std::vector<std::pair<int, int>> out;
          for (int u : g.neighbors(v)) out.push_back({u, v});
          return out;
        },
        [](int, State& s, const std::vector<std::pair<int, int>>& inbox) {
          for (const auto& [from, msg] : inbox) {
            EXPECT_EQ(from, msg);
            s.heard.push_back(from);
          }
        });
    for (int v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto& heard = engine.state(v).heard;
      ASSERT_EQ(heard.size(), nbrs.size()) << "node " << v;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_EQ(heard[i], nbrs[i]) << "node " << v;
      }
    }
    EXPECT_EQ(ledger.total(), 1);
    // Volume accounting: one round, 2m envelopes, split per slot exactly as
    // the views count internal/cross edges.
    EXPECT_EQ(shards.rounds_recorded(), 1);
    EXPECT_EQ(shards.total_messages(), 2 * g.num_edges());
    std::int64_t cross = 0;
    for (int s = 0; s < shards.num_shards(); ++s) {
      const GraphView& view = shards.view(s);
      EXPECT_EQ(shards.slot_messages(s, s), 2 * view.internal_edges());
      for (int d = 0; d < shards.num_shards(); ++d) {
        if (d == s) continue;
        EXPECT_EQ(shards.slot_messages(s, d), view.cross_edges(d))
            << s << " -> " << d;
        cross += shards.slot_messages(s, d);
      }
    }
    EXPECT_EQ(shards.cross_shard_messages(), cross);
    if (num_shards == 1) {
      EXPECT_EQ(cross, 0);
    }
  }
}

std::pair<std::vector<bool>, std::int64_t> serial_luby(const Graph& g) {
  Rng rng(99);
  RoundLedger ledger;
  auto mis = luby_mis_message_passing(g, rng, ledger, "mis");
  return {mis, ledger.total()};
}

// Every (shards, threads, B) shape of the in-process sharded engine is
// bit-identical to the serial golden under the same CONGEST cap.
TEST(ShardedEngine, LubyBitIdenticalForEveryShardsTimesThreads) {
  Rng grng(123);
  const Graph g = random_regular(400, 6, grng);
  const auto [serial_mis, serial_rounds] = serial_luby(g);
  EXPECT_TRUE(is_mis(g, serial_mis));
  for (std::int64_t bits : {std::int64_t{0}, std::int64_t{64}}) {
    // Per-B golden: the serial run under the same CONGEST cap.
    std::int64_t golden_rounds;
    {
      Rng rng(99);
      RoundLedger ledger;
      if (bits > 0) ledger.set_congest_bits(bits);
      const auto mis = luby_mis_message_passing(g, rng, ledger, "mis");
      EXPECT_EQ(mis, serial_mis);
      golden_rounds = ledger.total();
    }
    if (bits == 0) {
      EXPECT_EQ(golden_rounds, serial_rounds);
    }
    for (int num_shards : {1, 2, 3, 8}) {
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
        ShardRuntime shards(g, num_shards, pool_ptr);
        Rng rng(99);
        RoundLedger ledger;
        if (bits > 0) ledger.set_congest_bits(bits);
        const auto mis =
            luby_mis_message_passing(g, rng, ledger, "mis", pool_ptr, &shards);
        EXPECT_EQ(mis, serial_mis) << num_shards << " shards, " << threads
                                   << " threads, B=" << bits;
        EXPECT_EQ(ledger.total(), golden_rounds)
            << num_shards << " shards, " << threads << " threads, B=" << bits;
        EXPECT_GT(shards.rounds_recorded(), 0);
      }
    }
  }
}

// A scheduling-perverse Transport: shards run in REVERSE order, serially.
// Results must not move — the merge is keyed on (shard id, chunk index,
// sender id), never on execution order.
class ReverseTransport final : public Transport {
 public:
  explicit ReverseTransport(int num_shards) : num_shards_(num_shards) {}
  int num_shards() const override { return num_shards_; }
  void run_shards(const std::function<void(int)>& body) override {
    for (int s = num_shards_ - 1; s >= 0; --s) body(s);
  }

 private:
  int num_shards_;
};

TEST(ShardedEngine, ReverseShardOrderTransportIsObservationallyEquivalent) {
  Rng grng(31);
  const Graph g = random_regular(300, 4, grng);
  const auto [serial_mis, serial_rounds] = serial_luby(g);
  ShardRuntime shards(g, 5, nullptr, std::make_unique<ReverseTransport>(5));
  Rng rng(99);
  RoundLedger ledger;
  const auto mis =
      luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &shards);
  EXPECT_EQ(mis, serial_mis);
  EXPECT_EQ(ledger.total(), serial_rounds);
}

// --- the explicit drain/fill surface a serializing transport drives --------

TEST(Mailbox, FillDeliversWholeSlotAndTalliesCounters) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  using Env = Mailbox<int>::Envelope;
  mb.fill(0, 1, {Env{7, 1, 100}, Env{8, 2, 101}});
  ASSERT_EQ(mb.slot(0, 1).size(), 2u);
  EXPECT_EQ(mb.slot(0, 1)[0].from, 1);
  EXPECT_EQ(mb.slot(0, 1)[1].msg, 101);
  // fill() feeds the same accounting post() does: counts and wire bits.
  const auto& counts = mb.slot_counts();
  EXPECT_EQ(counts[0 * 2 + 1], 2);
  EXPECT_EQ(mb.slot_bits()[0 * 2 + 1], 2 * 32);
}

TEST(Mailbox, DoubleFillOfOneSlotThrows) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  using Env = Mailbox<int>::Envelope;
  mb.fill(1, 0, {Env{0, 9, 5}});
  EXPECT_THROW(mb.fill(1, 0, {Env{1, 9, 6}}), ContractViolation);
  // clear() rearms the guard — the next round may fill again.
  mb.clear();
  EXPECT_NO_THROW(mb.fill(1, 0, {Env{0, 9, 7}}));
}

TEST(Mailbox, FillOverLocallyPostedEnvelopesThrows) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  using Env = Mailbox<int>::Envelope;
  mb.post(0, /*from=*/1, /*to=*/7, 42);  // slot (0, 1) now has local content
  EXPECT_THROW(mb.fill(0, 1, {Env{7, 1, 42}}), ContractViolation);
}

TEST(Mailbox, DrainEmptiesTheSlotButAccountingSurvives) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/7, 42);
  mb.post(0, /*from=*/2, /*to=*/8, 43);
  auto drained = mb.drain(0, 1);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].msg, 42);
  EXPECT_TRUE(mb.slot(0, 1).empty());
  EXPECT_TRUE(mb.drain(0, 1).empty());  // second drain: nothing left
  // record_round-style accounting still sees both envelopes.
  EXPECT_EQ(mb.slot_counts()[0 * 2 + 1], 2);
  EXPECT_EQ(mb.slot_bits()[0 * 2 + 1], 2 * 32);
  mb.clear();
  EXPECT_EQ(mb.slot_counts()[0 * 2 + 1], 0);
}

// --- the distributed encode surface (Transport::exchange_owned) -------------

TEST(Mailbox, EncodeOwnedRowLeavesLocalSlotUntouched) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/2, 40);  // slot (0, 0): stays local
  mb.post(0, /*from=*/1, /*to=*/7, 41);  // slot (0, 1): crosses
  mb.post(0, /*from=*/3, /*to=*/8, 42);  // slot (0, 1), after the first
  auto row = mb.encode_owned_row(0);
  ASSERT_EQ(row.size(), 2u);
  // The local slot is never encoded — rank-local envelopes skip the codec
  // entirely — and its envelopes are still sitting in the mailbox.
  EXPECT_TRUE(row[0].empty());
  ASSERT_EQ(mb.slot(0, 0).size(), 1u);
  EXPECT_EQ(mb.slot(0, 0)[0].msg, 40);
  // The cross slot round-trips bit-exactly, post order preserved.
  const auto decoded = decode_slot<int, Mailbox<int>::Envelope>(row[1]);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].from, 1);
  EXPECT_EQ(decoded[0].to, 7);
  EXPECT_EQ(decoded[0].msg, 41);
  EXPECT_EQ(decoded[1].from, 3);
  EXPECT_EQ(decoded[1].msg, 42);
}

TEST(Mailbox, DoubleOwnedExchangeThrows) {
  const VertexPartition part = VertexPartition::contiguous(10, 2);
  Mailbox<int> mb(&part);
  mb.post(0, /*from=*/1, /*to=*/7, 1);
  EXPECT_NO_THROW(mb.encode_owned_row(0));
  // A second exchange in the same round means two collectives
  // raced one mailbox — fail loudly.
  EXPECT_THROW(mb.encode_owned_row(0), ContractViolation);
  // clear() re-arms the guard for the next round.
  mb.clear();
  EXPECT_NO_THROW(mb.encode_owned_row(0));
}

}  // namespace
}  // namespace deltacol
