// E16 — CONGEST mode (WireCodec<T>::bits in net/wire_codec.h + the
// CongestLedger mode of local/round_ledger.h).
//
// Two claims, two series:
//
//  * E16_RoundInflation — delta_color under bandwidth caps
//    B ∈ {16, 64, 256, inf}: `rounds` is monotone non-increasing in B and
//    `identical` must be 1 on every row (the coloring is B-invariant — the
//    cap is an accounting overlay, never an execution constraint). The
//    `inflation` column is rounds(B) / rounds(inf), the price of bandwidth
//    the paper's LOCAL analysis abstracts away.
//
//  * E16_CongestVolume — Luby's MIS on the message-passing engine over a
//    ShardRuntime: wire BYTES (message_bits sizing) per round and per shard,
//    plus the cross-shard byte fraction — the serialization budget a
//    distributed transport would pay. Messages per round are
//    bytes_per_round · 8 / bits_per_msg.
//
// Emission: wall-clock per row, BENCH_e16.json when DELTACOL_BENCH_JSON is
// set under the minibench harness (schema in bench/README.md), CSV via
// DELTACOL_CSV_DIR.
#include <map>

#include "bench_common.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "runtime/mailbox.h"
#include "runtime/thread_pool.h"

namespace deltacol::bench {

// Finite stand-in for B = infinity (LOCAL): wider than any message the
// pipelines send, so the congest path runs and still charges 1 per round.
// (Named at namespace scope so the BENCHMARK arg lists below can spell it.)
constexpr std::int64_t kInfB = 1'000'000'000;

namespace {

constexpr int kDegree = 8;

const Graph& cached_regular(int n) {
  static std::map<int, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_regular(n, kDegree, 2025)).first;
  }
  return it->second;
}

void e16_csv(benchmark::State& state, const std::string& family) {
  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit(family, row);
}

void E16_RoundInflation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t B = state.range(1);
  const Graph& g = cached_regular(n);

  DeltaColoringOptions local_opt;
  local_opt.seed = 7;
  const DeltaColoringResult local =
      delta_color(g, Algorithm::kRandomizedSmall, local_opt);

  DeltaColoringOptions opt = local_opt;
  opt.congest_bits = B;
  DeltaColoringResult res;
  for (auto _ : state) {
    res = delta_color(g, Algorithm::kRandomizedSmall, opt);
  }
  state.counters["congest_bits"] = static_cast<double>(B);
  state.counters["rounds"] = static_cast<double>(res.ledger.total());
  state.counters["rounds_local"] = static_cast<double>(local.ledger.total());
  state.counters["inflation"] =
      static_cast<double>(res.ledger.total()) /
      static_cast<double>(local.ledger.total());
  // The differential contract, re-asserted on every row: same coloring, and
  // at B = inf the charges recover LOCAL exactly.
  state.counters["identical"] =
      (res.coloring == local.coloring &&
       (B < kInfB || res.ledger.total() == local.ledger.total()))
          ? 1.0
          : 0.0;
  e16_csv(state, "e16_round_inflation");
}

void E16_CongestVolume(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int num_shards = static_cast<int>(state.range(1));
  const Graph& g = cached_regular(n);

  std::int64_t rounds = 0;
  std::int64_t bits = 0;
  std::int64_t cross_bits = 0;
  std::int64_t msgs = 0;
  for (auto _ : state) {
    ShardRuntime shards(g, num_shards, nullptr);
    Rng rng(99);
    RoundLedger ledger;
    luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &shards);
    rounds = shards.rounds_recorded();
    bits = shards.total_bits();
    cross_bits = shards.cross_shard_bits();
    msgs = shards.total_messages();
  }
  const double bytes = static_cast<double>(bits) / 8.0;
  state.counters["shards"] = num_shards;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["bytes_total"] = bytes;
  state.counters["bytes_per_round"] =
      rounds > 0 ? bytes / static_cast<double>(rounds) : 0.0;
  state.counters["bytes_per_round_per_shard"] =
      rounds > 0 ? bytes / (static_cast<double>(rounds) * num_shards) : 0.0;
  state.counters["cross_bytes_fraction"] =
      bits > 0 ? static_cast<double>(cross_bits) / static_cast<double>(bits)
               : 0.0;
  // Wire sizing sanity: every Luby message is kLubyMessageBits wide.
  state.counters["bits_per_msg"] =
      msgs > 0 ? static_cast<double>(bits) / static_cast<double>(msgs) : 0.0;
  e16_csv(state, "e16_congest_volume");
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E16_RoundInflation)
    ->ArgsProduct({{20000, 50000},
                   {16, 64, 256, deltacol::bench::kInfB}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E16_CongestVolume)
    ->ArgsProduct({{20000, 50000}, {1, 2, 4, 8}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);
