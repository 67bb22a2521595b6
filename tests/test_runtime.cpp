// The parallel execution runtime (src/runtime/): ThreadPool semantics
// (chunked execution, nesting, exception propagation, empty regions) and
// the message engine's thread- and shard-invariance.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "runtime/component_scheduler.h"
#include "runtime/mailbox.h"
#include "runtime/sync_engine.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const int n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(0, n, [&](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ThreadPool, EmptyAndSingletonRegionsDoNotDeadlock) {
  ThreadPool pool(4);
  pool.parallel_for(0, 0, [](int) { FAIL() << "body ran on empty range"; });
  pool.parallel_for(5, 3, [](int) { FAIL() << "body ran on inverted range"; });
  pool.parallel_chunks(0, [](int) { FAIL() << "chunk ran on empty region"; });
  int ran = 0;
  pool.parallel_chunks(1, [&](int) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, RangesPartitionContiguouslyAndAscending) {
  ThreadPool pool(3);
  std::vector<std::pair<int, int>> ranges(
      static_cast<std::size_t>(pool.num_range_chunks(1000)));
  pool.parallel_ranges(0, 1000, [&](int chunk, int lo, int hi) {
    ranges[static_cast<std::size_t>(chunk)] = {lo, hi};
  });
  int expect_lo = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LE(lo, hi);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 1000);
}

TEST(ThreadPool, ExceptionsPropagateFromTheLowestFailingChunk) {
  ThreadPool pool(4);
  try {
    pool.parallel_chunks(64, [](int c) {
      if (c % 7 == 3) throw std::runtime_error("chunk " + std::to_string(c));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Chunks 3, 10, 17, ... all throw; the serial-order winner is chunk 3.
    EXPECT_STREQ(e.what(), "chunk 3");
  }
}

// Nested tests go through parallel_chunks, NOT parallel_for: small
// parallel_for ranges fall under the kMinParallelItems inline cutoff and
// would never reach the multi-threaded Region machinery these tests pin.
TEST(ThreadPool, NestedRegionsCompleteWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_chunks(16, [&](int) {
    pool.parallel_chunks(16, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16 * 16);
}

TEST(ThreadPool, NestedExceptionSurfacesThroughOuterRegion) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_chunks(8,
                                    [&](int i) {
                                      pool.parallel_chunks(8, [&](int j) {
                                        if (i == 2 && j == 5) {
                                          throw std::logic_error("inner");
                                        }
                                      });
                                    }),
               std::logic_error);
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(ThreadPool::resolve_num_threads(1), 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(-3), 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(5), 5);
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1);  // hardware count
}

// The engine-level determinism pin: the same per-node algorithm driven on
// the calling thread and on pools of several sizes must produce identical
// results, with and without a shard runtime attached.
TEST(SyncEngine, LubyBitIdenticalAcrossThreadsAndShards) {
  Rng grng(123);
  const Graph g = random_regular(600, 6, grng);

  const auto run_serial = [&]() {
    Rng rng(99);
    RoundLedger ledger;
    auto mis = luby_mis_message_passing(g, rng, ledger, "mis");
    return std::make_pair(mis, ledger.total());
  };
  const auto [serial_mis, serial_rounds] = run_serial();
  EXPECT_TRUE(is_mis(g, serial_mis));

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    Rng rng(99);
    RoundLedger ledger;
    const auto mis = luby_mis_message_passing(g, rng, ledger, "mis", &pool);
    EXPECT_EQ(mis, serial_mis) << threads << " threads";
    EXPECT_EQ(ledger.total(), serial_rounds) << threads << " threads";
  }

  for (int num_shards : {2, 8}) {
    for (int threads : {1, 8}) {
      ThreadPool pool(threads);
      ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
      ShardRuntime shards(g, num_shards, pool_ptr);
      Rng rng(99);
      RoundLedger ledger;
      const auto mis =
          luby_mis_message_passing(g, rng, ledger, "mis", pool_ptr, &shards);
      EXPECT_EQ(mis, serial_mis)
          << num_shards << " shards, " << threads << " threads";
      EXPECT_EQ(ledger.total(), serial_rounds)
          << num_shards << " shards, " << threads << " threads";
    }
  }
}

// An order-sensitive fold: every node repeatedly sends id * 31 + round on
// every port and folds what it hears as sum = sum * 13 + from + msg, so the
// final states pin inbox contents AND order. After 5 rounds every (S, T)
// shape must land on the frozen FNV-1a hash of the states in vertex order.
TEST(SyncEngine, SumFoldFloodLandsOnTheFrozenHash) {
  Rng grng(5);
  const Graph g = random_regular(200, 4, grng);
  const int n = g.num_vertices();

  struct State {
    std::uint64_t sum = 0;  // unsigned: the fold wraps, never overflows
  };
  using Engine = SyncEngine<State, int>;
  const auto run = [&](ThreadPool* pool, ShardRuntime* shards,
                       const std::string& shape) {
    RoundLedger ledger;
    Engine engine(g, ledger, "p", pool, shards);
    for (int round = 0; round < 5; ++round) {
      engine.round(
          [round](int v, const State&, Engine::Ports& out) {
            for (int p = 0; p < out.size(); ++p) out.send(p, v * 31 + round);
          },
          [](int, State& s, const Engine::Inbox& inbox) {
            for (const auto& [from, m] : inbox) s.sum = s.sum * 13 + from + m;
          });
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int v = 0; v < n; ++v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (engine.state(v).sum >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
    EXPECT_EQ(h, 0xbfe08b1df149b5a3ULL) << shape;
    EXPECT_EQ(ledger.total(), 5) << shape;
  };
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
    const std::string t = "T=" + std::to_string(threads);
    run(pool_ptr, nullptr, t);
    for (int num_shards : {1, 2, 3, 8}) {
      ShardRuntime shards(g, num_shards, pool_ptr);
      run(pool_ptr, &shards, t + " S=" + std::to_string(num_shards));
    }
  }
}

TEST(ComponentScheduler, RunsEveryJobOnceAndChargesMax) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    const ComponentScheduler sched(threads > 1 ? &pool : nullptr);
    std::vector<int> ran(9, 0);
    std::vector<RoundLedger> ledgers(9);
    sched.run(9, [&](int i) {
      ran[static_cast<std::size_t>(i)] += 1;
      ledgers[static_cast<std::size_t>(i)].charge(i * 3, "phase-a");
      ledgers[static_cast<std::size_t>(i)].charge(i, "phase-b");
    });
    for (int r : ran) EXPECT_EQ(r, 1);
    RoundLedger parent;
    parent.charge(7, "shared");
    charge_max_component(parent, ledgers);
    // Max child is index 8: 24 + 8 = 32 on top of the shared 7.
    EXPECT_EQ(parent.total(), 7 + 32);
    EXPECT_EQ(parent.phase_total("phase-a"), 24);
    EXPECT_EQ(parent.phase_total("phase-b"), 8);
  }
}

TEST(ComponentScheduler, AllZeroChildrenMergeNothing) {
  std::vector<RoundLedger> ledgers(4);
  ledgers[1].charge(0, "noise");  // a 0-round phase must not leak through
  RoundLedger parent;
  charge_max_component(parent, ledgers);
  EXPECT_EQ(parent.total(), 0);
  EXPECT_TRUE(parent.breakdown().empty());
}

TEST(RoundLedger, ConcurrentChargingIsSafeAndSumsExactly) {
  ThreadPool pool(8);
  RoundLedger ledger;
  pool.parallel_for(0, 2000, [&](int i) {
    ledger.charge(1, i % 2 == 0 ? "even" : "odd");
  });
  EXPECT_EQ(ledger.total(), 2000);
  EXPECT_EQ(ledger.phase_total("even"), 1000);
  EXPECT_EQ(ledger.phase_total("odd"), 1000);
}

}  // namespace
}  // namespace deltacol
