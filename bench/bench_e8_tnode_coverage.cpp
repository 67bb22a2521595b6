// E8 — Lemma 31 (small-Delta analysis): for Delta = O(1) and
// r = Theta(log log n), the marking process creates a T-node for every node
// of the remainder graph H w.h.p. — Phase (6) becomes empty.
//
// Series: fraction of H left unhappy vs the happiness radius r, for
// Delta in {3, 4}. Reproduction claim: the unhappy fraction decreases
// monotonically (up to noise) in r; the asymptotic "all happy" regime needs
// volumes ~Delta^12 log n (EXPERIMENTS.md discusses the gap).
#include "bench_common.h"

namespace deltacol::bench {
namespace {

void E8_TnodeCoverage(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const int n = 8192;
  const Graph g = make_regular(n, d, 88);
  DeltaColoringOptions opt;
  opt.dcc_radius = r;
  // The option only caps the small variant's radius: at n = 8192 it uses
  // ceil(log2 log2 n) = 4, so a cap of r pins r for r in [2, 4].
  opt.small_variant_radius_cap = r;
  opt.backoff = 3;
  opt.seed = 17;
  DeltaColoringResult res;
  double unhappy = 0;
  const int reps = 3;
  for (auto _ : state) {
    for (int rep = 0; rep < reps; ++rep) {
      res = delta_color(g, Algorithm::kRandomizedSmall, opt);
      ++opt.seed;
      if (res.stats.h_vertices > 0) {
        unhappy += static_cast<double>(res.stats.leftover_vertices) /
                   res.stats.h_vertices / reps;
      }
    }
  }
  report(state, res);
  state.counters["unhappy_fraction"] = unhappy;
  state.counters["h_size"] = res.stats.h_vertices;
  state.counters["tnodes"] = res.stats.num_tnodes;
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E8_TnodeCoverage)
    ->ArgsProduct({{3, 4}, {2, 3, 4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
