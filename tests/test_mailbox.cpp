// The message engine over the shard runtime (runtime/sync_engine.h +
// runtime/mailbox.h): one flood round delivers exactly the adjacency and
// tallies per-(sender owner, receiver owner) volume equal to the GraphView
// edge counts; Luby is bit-identical for every shards x threads x B shape;
// and the frozen Luby goldens — MIS hash and ledger per zoo workload x B,
// plus the full per-slot message and bit matrices — that every (S, T,
// partition) shape must reproduce.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/renumber.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "runtime/mailbox.h"
#include "runtime/sync_engine.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

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
    using Engine = SyncEngine<State, int>;
    Engine engine(g, ledger, "flood", &pool, &shards);
    engine.round(
        [](int v, const State&, Engine::Ports& out) {
          for (int p = 0; p < out.size(); ++p) out.send(p, v);
        },
        [](int, State& s, const Engine::Inbox& inbox) {
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
    // Volume accounting: one round, 2m messages, split per slot exactly as
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

// --- the frozen Luby observables --------------------------------------------
//
// The message engine's reference is this table, not a second engine: every
// (S, T, partition) shape of luby_mis_message_passing must land on these
// values, the way kGoldens pins delta_color (test_golden_determinism). If a
// change legitimately moves them, regenerate the table from the serial run
// (no pool, no runtime) and the three runtime shapes below, and say so in
// the commit; an unexplained mismatch is a determinism regression.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mis_hash(const std::vector<bool>& mis) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (bool x : mis) h = fnv1a(h, x ? 1 : 0);
  return h;
}

struct LubyGolden {
  const char* graph;
  std::int64_t congest_bits;  // 0 = LOCAL
  std::uint64_t mis_hash;
  std::int64_t ledger_total;
};

// Rng(99), captured from the serial run.
constexpr LubyGolden kLubyGoldens[] = {
    {"regular-500-6", 0, 0xf0bced8f2126b445ULL, 6},
    {"regular-500-6", 64, 0xf0bced8f2126b445ULL, 12},
    {"gallai-400-4", 0, 0x76aba66565e95dc5ULL, 6},
    {"gallai-400-4", 64, 0x76aba66565e95dc5ULL, 12},
    {"sparse-400-6", 0, 0xac8f5aca92c91165ULL, 6},
    {"sparse-400-6", 64, 0xac8f5aca92c91165ULL, 12},
    {"3-components", 0, 0xb97cf6394618de84ULL, 6},
    {"3-components", 64, 0xb97cf6394618de84ULL, 12},
    {"triangle-cactus", 0, 0x603b74fd8a7c3e64ULL, 6},
    {"triangle-cactus", 64, 0x603b74fd8a7c3e64ULL, 12},
};

// Per-slot volume is an execution observable, so it is B-invariant (CONGEST
// charging is an accounting overlay): one row per (graph, shape), checked
// under both caps. Matrices are row-major (source shard, destination shard).
struct SlotGolden {
  const char* graph;
  int num_shards;
  PartitionStrategy strategy;
  std::int64_t rounds_recorded;
  std::vector<std::int64_t> messages;
  std::vector<std::int64_t> bits;
};

const SlotGolden kSlotGoldens[] = {
    {"regular-500-6", 2, PartitionStrategy::kContiguous, 6,
     {1433, 1573, 1526, 1420},
     {93145, 102245, 99190, 92300}},
    {"regular-500-6", 3, PartitionStrategy::kContiguous, 6,
     {623, 686, 713, 687, 559, 698, 634, 743, 609},
     {40495, 44590, 46345, 44655, 36335, 45370, 41210, 48295, 39585}},
    {"regular-500-6", 2, PartitionStrategy::kCluster, 6,
     {1737, 1101, 1308, 1806},
     {112905, 71565, 85020, 117390}},
    {"gallai-400-4", 2, PartitionStrategy::kContiguous, 6,
     {1036, 107, 154, 821},
     {67340, 6955, 10010, 53365}},
    {"gallai-400-4", 3, PartitionStrategy::kContiguous, 6,
     {683, 67, 30, 92, 547, 81, 59, 60, 499},
     {44395, 4355, 1950, 5980, 35555, 5265, 3835, 3900, 32435}},
    {"gallai-400-4", 2, PartitionStrategy::kCluster, 6,
     {1062, 27, 31, 998},
     {69030, 1755, 2015, 64870}},
    {"sparse-400-6", 2, PartitionStrategy::kContiguous, 6,
     {1031, 567, 637, 746},
     {67015, 36855, 41405, 48490}},
    {"sparse-400-6", 3, PartitionStrategy::kContiguous, 6,
     {596, 278, 226, 337, 302, 268, 292, 372, 310},
     {38740, 18070, 14690, 21905, 19630, 17420, 18980, 24180, 20150}},
    {"sparse-400-6", 2, PartitionStrategy::kCluster, 6,
     {1060, 450, 462, 1009},
     {68900, 29250, 30030, 65585}},
    {"3-components", 2, PartitionStrategy::kContiguous, 6,
     {1983, 125, 110, 1543},
     {128895, 8125, 7150, 100295}},
    {"3-components", 3, PartitionStrategy::kContiguous, 6,
     {1018, 372, 0, 413, 868, 29, 0, 24, 1037},
     {66170, 24180, 0, 26845, 56420, 1885, 0, 1560, 67405}},
    {"3-components", 2, PartitionStrategy::kCluster, 6,
     {2027, 89, 74, 1571},
     {131755, 5785, 4810, 102115}},
    {"triangle-cactus", 2, PartitionStrategy::kContiguous, 6,
     {4240, 1254, 1699, 1691},
     {275600, 81510, 110435, 109915}},
    {"triangle-cactus", 3, PartitionStrategy::kContiguous, 6,
     {2893, 920, 3, 983, 980, 839, 9, 1128, 1129},
     {188045, 59800, 195, 63895, 63700, 54535, 585, 73320, 73385}},
    {"triangle-cactus", 2, PartitionStrategy::kCluster, 6,
     {4436, 50, 52, 4346},
     {288340, 3250, 3380, 282490}},
};

const LubyGolden& luby_golden(const std::string& graph, std::int64_t bits) {
  for (const LubyGolden& g : kLubyGoldens) {
    if (graph == g.graph && bits == g.congest_bits) return g;
  }
  ADD_FAILURE() << "no Luby golden for " << graph << " B=" << bits;
  return kLubyGoldens[0];
}

TEST(LubyGoldens, EveryShapeLandsOnTheFrozenMisAndLedger) {
  for (const auto& w : generator_zoo()) {
    for (std::int64_t bits : {std::int64_t{0}, std::int64_t{64}}) {
      const LubyGolden& golden = luby_golden(w.name, bits);
      const auto check = [&](ThreadPool* pool, ShardRuntime* shards,
                             const std::string& shape) {
        Rng rng(99);
        RoundLedger ledger;
        if (bits > 0) ledger.set_congest_bits(bits);
        const auto mis =
            luby_mis_message_passing(w.graph, rng, ledger, "mis", pool, shards);
        EXPECT_EQ(mis_hash(mis), golden.mis_hash)
            << w.name << " B=" << bits << " " << shape;
        EXPECT_EQ(ledger.total(), golden.ledger_total)
            << w.name << " B=" << bits << " " << shape;
      };
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
        const std::string t = "T=" + std::to_string(threads);
        check(pool_ptr, nullptr, t + " no runtime");
        for (int num_shards : {1, 2, 3, 8}) {
          ShardRuntime shards(w.graph, num_shards, pool_ptr);
          check(pool_ptr, &shards, t + " S=" + std::to_string(num_shards));
        }
      }
    }
  }
}

TEST(LubyGoldens, SlotMatricesAreFrozenAtEveryThreadCount) {
  const auto zoo = generator_zoo();
  for (const SlotGolden& golden : kSlotGoldens) {
    const Graph* g = nullptr;
    for (const auto& w : zoo) {
      if (w.name == golden.graph) g = &w.graph;
    }
    ASSERT_NE(g, nullptr) << golden.graph;
    const int s = golden.num_shards;
    const std::string shape =
        std::string(golden.graph) + " S=" + std::to_string(s) + " " +
        partition_strategy_name(golden.strategy);
    for (std::int64_t bits : {std::int64_t{0}, std::int64_t{64}}) {
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
        ShardRuntime shards(
            *g, make_partition(*g, s, golden.strategy, pool_ptr), pool_ptr);
        Rng rng(99);
        RoundLedger ledger;
        if (bits > 0) ledger.set_congest_bits(bits);
        const auto mis =
            luby_mis_message_passing(*g, rng, ledger, "mis", pool_ptr, &shards);
        const std::string at = shape + " B=" + std::to_string(bits) +
                               " T=" + std::to_string(threads);
        EXPECT_EQ(mis_hash(mis), luby_golden(golden.graph, bits).mis_hash)
            << at;
        EXPECT_EQ(shards.rounds_recorded(), golden.rounds_recorded) << at;
        for (int a = 0; a < s; ++a) {
          for (int b = 0; b < s; ++b) {
            const std::size_t i = static_cast<std::size_t>(a * s + b);
            EXPECT_EQ(shards.slot_messages(a, b), golden.messages[i])
                << at << " slot (" << a << ", " << b << ")";
            EXPECT_EQ(shards.slot_bits(a, b), golden.bits[i])
                << at << " slot (" << a << ", " << b << ")";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace deltacol
