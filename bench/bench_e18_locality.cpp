// E18 — locality-aware partitioning (graph/renumber.h +
// PartitionStrategy::kCluster).
//
// The claim: on clustered topologies with wild vertex ids, the cluster
// partition cuts the cross-shard traffic the contiguous partition pays —
// while Luby's MIS stays bit-identical, because partitioning is
// placement-only (DESIGN.md §6).
//
// Workloads: a 2-D grid, a triangle cactus, and a preferential-attachment
// power-law graph, each with ids SCRAMBLED by a fixed pseudo-random
// permutation. The scramble matters: these generators hand out ids in
// construction order, which is already layout-friendly, so an unscrambled
// grid would make the contiguous baseline look artificially good. Wild ids
// model real inputs (hashed ids, crawl order), where contiguous ranges are
// topologically meaningless and the cross-edge fraction sits near the
// pessimistic (S-1)/S bound that E16's cross_bytes_fraction shows on
// expanders.
//
//  * E18_CrossTraffic — shards ∈ {2, 4, 8} per workload:
//      - cross_frac_contig / cross_frac_cluster: static cut fraction of the
//        two strategies (graph/metrics.h cross_edge_fraction);
//      - cross_cut_pct: 100·(1 − cluster/contig) — the acceptance criterion
//        is ≥ 30 on the grid and cactus rows at every S;
//      - cross_mrps_contig / cross_mrps_cluster: cross-shard messages per
//        round per shard for Luby's MIS on the message engine over a shard
//        runtime (total messages are partition-invariant — only which
//        shards they connect changes — so the cross count is the quantity
//        a transport pays);
//      - identical: 1 iff the MIS and its engine round/message counts are
//        bit-identical between the two strategies AND the unsharded oracle.
//
//  * E18_WirePayload — 2 ranks over a socketpair per workload, one run per
//    strategy: wire_cross_contig / wire_cross_cluster are the edge-frame
//    payload bytes each rank framed to its peer
//    (SocketTransport::cross_payload_bytes — the measured cross-shard
//    payload of the distributed exchange, see net/socket_transport.h),
//    wire_cut_pct the relative drop, identical the cross-strategy
//    bit-identity.
//
// Emission: wall-clock per row, BENCH_e18.json when DELTACOL_BENCH_JSON is
// set under the minibench harness (schema in bench/README.md), CSV via
// DELTACOL_CSV_DIR.
#include <sys/socket.h>

#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "bench_common.h"
#include "graph/metrics.h"
#include "graph/renumber.h"
#include "mis/luby_sync.h"
#include "net/socket_transport.h"
#include "runtime/mailbox.h"

namespace deltacol::bench {
namespace {

// Workload table: clustered topologies whose construction-order ids are then
// destroyed by a fixed Fisher-Yates scramble.
constexpr const char* kWorkloadNames[] = {"grid-100x100", "cactus-6000",
                                          "powerlaw-2000-3"};

Graph build_workload(int which) {
  switch (which) {
    case 0:
      return grid_graph(100, 100, false);
    case 1:
      return triangle_cactus(6000);
    default: {
      Rng rng(2026);
      return preferential_attachment(2000, 3, rng);
    }
  }
}

const Graph& scrambled_workload(int which) {
  static std::map<int, Graph> cache;
  auto it = cache.find(which);
  if (it == cache.end()) {
    const Graph base = build_workload(which);
    const int n = base.num_vertices();
    auto to_new = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n));
    std::iota(to_new->begin(), to_new->end(), 0);
    Rng rng(0xE18u + static_cast<std::uint64_t>(which));
    rng.shuffle(*to_new);
    auto to_old = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      (*to_old)[static_cast<std::size_t>((*to_new)[static_cast<std::size_t>(v)])] = v;
    }
    Renumbering scramble;
    scramble.to_new = to_new;
    scramble.to_old = to_old;
    it = cache.emplace(which, relabeled_graph(base, scramble)).first;
  }
  return it->second;
}

struct LubyRun {
  std::vector<bool> mis;
  std::int64_t rounds = 0;
  std::int64_t msgs = 0;
  std::int64_t cross = 0;
};

LubyRun luby_over(const Graph& g, const VertexPartition& part) {
  ShardRuntime rt(g, part, nullptr);
  Rng rng(99);
  RoundLedger ledger;
  LubyRun out;
  out.mis = luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &rt);
  out.rounds = rt.rounds_recorded();
  out.msgs = rt.total_messages();
  out.cross = rt.cross_shard_messages();
  return out;
}

void e18_csv(benchmark::State& state, const std::string& family) {
  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit(family, row);
}

void E18_CrossTraffic(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const int num_shards = static_cast<int>(state.range(1));
  const Graph& g = scrambled_workload(which);

  const VertexPartition contig =
      VertexPartition::contiguous(g.num_vertices(), num_shards);
  const VertexPartition cluster =
      make_partition(g, num_shards, PartitionStrategy::kCluster, nullptr);

  const double frac_contig = cross_edge_fraction(g, contig);
  const double frac_cluster = cross_edge_fraction(g, cluster);

  // Unsharded oracle for the bit-identity counter.
  std::vector<bool> oracle_mis;
  {
    Rng rng(99);
    RoundLedger ledger;
    oracle_mis = luby_mis_message_passing(g, rng, ledger, "mis");
  }

  LubyRun lc, lk;
  for (auto _ : state) {
    lc = luby_over(g, contig);
    lk = luby_over(g, cluster);
  }

  const bool identical = lc.mis == oracle_mis && lk.mis == oracle_mis &&
                         lc.msgs == lk.msgs && lc.rounds == lk.rounds;
  const auto per_round_shard = [&](std::int64_t msgs, std::int64_t rounds) {
    return rounds > 0 ? static_cast<double>(msgs) /
                            (static_cast<double>(rounds) * num_shards)
                      : 0.0;
  };
  state.counters["shards"] = num_shards;
  state.counters["cross_frac_contig"] = frac_contig;
  state.counters["cross_frac_cluster"] = frac_cluster;
  state.counters["cross_cut_pct"] =
      frac_contig > 0 ? 100.0 * (1.0 - frac_cluster / frac_contig) : 0.0;
  state.counters["cross_mrps_contig"] = per_round_shard(lc.cross, lc.rounds);
  state.counters["cross_mrps_cluster"] = per_round_shard(lk.cross, lk.rounds);
  state.counters["identical"] = identical ? 1.0 : 0.0;
  e18_csv(state, std::string("e18_cross_traffic_") + kWorkloadNames[which]);
}

void E18_WirePayload(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const Graph& g = scrambled_workload(which);
  constexpr int kWorld = 2;

  // One 2-rank socketpair run per strategy; returns (cross payload bytes,
  // mis) — both ranks' MIS must equal the unsharded oracle.
  std::vector<bool> oracle_mis;
  {
    Rng rng(99);
    RoundLedger ledger;
    oracle_mis = luby_mis_message_passing(g, rng, ledger, "mis");
  }
  const auto run_pair = [&](const VertexPartition& part, bool* ok) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      *ok = false;
      return static_cast<std::int64_t>(0);
    }
    std::vector<std::unique_ptr<ShardRuntime>> rts(kWorld);
    rts[0] = std::make_unique<ShardRuntime>(
        g, part, nullptr,
        std::make_unique<SocketTransport>(0, kWorld,
                                          std::vector<int>{-1, sv[0]}));
    rts[1] = std::make_unique<ShardRuntime>(
        g, part, nullptr,
        std::make_unique<SocketTransport>(1, kWorld,
                                          std::vector<int>{sv[1], -1}));
    std::int64_t cross_payload = 0;
    bool identical = true;
    std::vector<std::thread> threads;
    std::vector<std::vector<bool>> mis(kWorld);
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        ShardRuntime& rt = *rts[static_cast<std::size_t>(r)];
        Rng rng(99);
        RoundLedger ledger;
        mis[static_cast<std::size_t>(r)] =
            luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &rt);
      });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < kWorld; ++r) {
      identical = identical && mis[static_cast<std::size_t>(r)] == oracle_mis;
      cross_payload +=
          static_cast<SocketTransport&>(rts[static_cast<std::size_t>(r)]->transport())
              .cross_payload_bytes();
    }
    *ok = *ok && identical;
    return cross_payload;
  };

  const VertexPartition contig =
      VertexPartition::contiguous(g.num_vertices(), kWorld);
  const VertexPartition cluster =
      make_partition(g, kWorld, PartitionStrategy::kCluster, nullptr);
  bool ok = true;
  std::int64_t wire_contig = 0, wire_cluster = 0;
  for (auto _ : state) {
    wire_contig = run_pair(contig, &ok);
    wire_cluster = run_pair(cluster, &ok);
  }
  state.counters["wire_cross_contig"] = static_cast<double>(wire_contig);
  state.counters["wire_cross_cluster"] = static_cast<double>(wire_cluster);
  state.counters["wire_cut_pct"] =
      wire_contig > 0
          ? 100.0 * (1.0 - static_cast<double>(wire_cluster) /
                               static_cast<double>(wire_contig))
          : 0.0;
  state.counters["identical"] = ok ? 1.0 : 0.0;
  e18_csv(state, std::string("e18_wire_payload_") + kWorkloadNames[which]);
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E18_CrossTraffic)
    ->ArgsProduct({{0, 1, 2}, {2, 4, 8}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E18_WirePayload)
    ->ArgsProduct({{0, 1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
