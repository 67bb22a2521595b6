// E9 — substrate contracts (Theorem 18/19 stand-ins, Lemma 20, Linial):
// round counts of the building blocks in isolation.
//
// Series: Linial rounds vs n (expect log*-flat); deterministic and
// randomized (deg+1)-list coloring rounds vs n and Delta; ruling-set rounds
// for both engines; Luby MIS rounds vs n (expect ~log n).
#include "bench_common.h"

#include <numeric>

#include "coloring/linial.h"
#include "coloring/list_coloring.h"
#include "mis/mis.h"
#include "mis/ruling_set.h"

namespace deltacol::bench {
namespace {

void E9_Linial(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = make_regular(n, 4, 91);
  int rounds = 0, colors = 0;
  for (auto _ : state) {
    RoundLedger ledger;
    const auto res = linial_coloring(g, ledger);
    rounds = res.rounds;
    colors = res.num_colors;
  }
  state.counters["rounds"] = rounds;
  state.counters["colors"] = colors;
}

// Both list engines on the instance of an uncolored d-regular graph with
// palette d + 1: every vertex may take any color of [0, d].
void E9_ListColoringDet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const Graph g = make_regular(n, d, 92);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::int64_t rounds = 0;
  for (auto _ : state) {
    Coloring c(static_cast<std::size_t>(n), kUncolored);
    RoundLedger ledger;
    color_vertex_set_as_list_instance(
        g, all, [d](int) { return d + 1; }, lin.coloring, lin.num_colors,
        ListEngine::kDeterministic, nullptr, c, ledger, "b");
    rounds = ledger.total();
  }
  state.counters["rounds"] = static_cast<double>(rounds);
}

void E9_ListColoringRand(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const Graph g = make_regular(n, d, 93);
  RoundLedger tmp;
  const auto lin = linial_coloring(g, tmp);
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::int64_t rounds = 0;
  Rng rng(3);
  for (auto _ : state) {
    Coloring c(static_cast<std::size_t>(n), kUncolored);
    RoundLedger ledger;
    color_vertex_set_as_list_instance(
        g, all, [d](int) { return d + 1; }, lin.coloring, lin.num_colors,
        ListEngine::kRandomized, &rng, c, ledger, "b");
    rounds = ledger.total();
  }
  state.counters["rounds"] = static_cast<double>(rounds);
}

void E9_RulingSetDet(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int alpha = static_cast<int>(state.range(1));
  const Graph g = make_regular(n, 4, 94);
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  std::int64_t rounds = 0;
  std::size_t size = 0;
  for (auto _ : state) {
    RoundLedger ledger;
    const auto m = ruling_set(g, all, alpha, RulingSetEngine::kDeterministic,
                              nullptr, ledger, "b");
    rounds = ledger.total();
    size = m.size();
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["set_size"] = static_cast<double>(size);
}

void E9_LubyMis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = make_regular(n, 4, 95);
  std::int64_t rounds = 0;
  Rng rng(9);
  for (auto _ : state) {
    RoundLedger ledger;
    const auto mis = luby_mis(g, rng, ledger, "b");
    benchmark::DoNotOptimize(mis);
    rounds = ledger.total();
  }
  state.counters["rounds"] = static_cast<double>(rounds);
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E9_Linial)
    ->Arg(256)->Arg(4096)->Arg(65536)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(deltacol::bench::E9_ListColoringDet)
    ->ArgsProduct({{1024, 16384}, {4, 8, 16}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(deltacol::bench::E9_ListColoringRand)
    ->ArgsProduct({{1024, 16384}, {4, 8, 16}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(deltacol::bench::E9_RulingSetDet)
    ->ArgsProduct({{1024, 16384}, {2, 8, 32}})
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(deltacol::bench::E9_LubyMis)
    ->Arg(1024)->Arg(16384)->Arg(262144)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
