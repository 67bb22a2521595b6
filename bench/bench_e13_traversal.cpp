// E13 — traversal throughput (graph/frontier_bfs.h; DESIGN.md §6).
//
// The one experiment that measures the simulator's BFS substrate itself:
// repeated r-ball queries — the DCC-detection access pattern — through the
// seed-style implementation (a fresh O(n) distance vector + O(n) result
// scan per query) vs the epoch-stamped scratch (O(ball) per query).
// `speedup_vs_seed` is the acceptance counter: >= 5x at n = 1M. One query
// is serial by design, so there is no thread sweep; `host_cores` records
// the machine the row ran on.
//
// Emission: wall-clock per row (both harnesses), plus BENCH_*.json when
// DELTACOL_BENCH_JSON is set under the minibench harness (see
// bench/README.md for the schema) and CSV via DELTACOL_CSV_DIR.
#include <chrono>
#include <map>
#include <queue>
#include <thread>
#include <utility>

#include "bench_common.h"
#include "graph/frontier_bfs.h"

namespace deltacol::bench {
namespace {

constexpr int kDegree = 8;
constexpr int kBallQueries = 512;

// Graphs are expensive at n = 1M; build each (n, d) once per process.
const Graph& cached_regular(int n) {
  static std::map<int, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_regular(n, kDegree, 77)).first;
  }
  return it->second;
}

// Deterministic query centers spread over the vertex range.
inline int center(int i, int n) {
  return static_cast<int>((static_cast<std::int64_t>(i) * 99991) % n);
}

// The seed's ball(): queue BFS into a fresh n-sized distance vector, then
// an O(n) scan for reached vertices — kept verbatim as the baseline.
std::size_t seed_style_ball_size(const Graph& g, int v, int r) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
  std::queue<int> q;
  dist[static_cast<std::size_t>(v)] = 0;
  q.push(v);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    if (dist[static_cast<std::size_t>(u)] >= r) continue;
    for (int w : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] == -1) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push(w);
      }
    }
  }
  std::size_t count = 0;
  for (int u = 0; u < g.num_vertices(); ++u) {
    if (dist[static_cast<std::size_t>(u)] != -1) ++count;
  }
  return count;
}

// 1-run wall-clock baselines for speedup_vs_seed, keyed by (n, r) and
// filled by the seed-style rows (rows run in registration order).
std::map<std::pair<int, int>, double>& baselines() {
  static std::map<std::pair<int, int>, double> b;
  return b;
}

// Stamps the host's core count on the row and appends it to the CSV sink.
void e13_emit(benchmark::State& state, const std::string& family) {
  state.counters["host_cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit(family, row);
}

void E13_BallSeedStyle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const Graph& g = cached_regular(n);
  std::size_t checksum = 0;
  std::int64_t queries = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBallQueries; ++i) {
      checksum += seed_style_ball_size(g, center(i, n), r);
      ++queries;
    }
  }
  benchmark::DoNotOptimize(checksum);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBallQueries; ++i) {
    checksum += seed_style_ball_size(g, center(i, n), r);
    ++queries;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  baselines()[{n, r}] = secs;
  state.counters["queries_per_s"] = secs > 0.0 ? kBallQueries / secs : 0.0;
  state.counters["mean_ball"] =
      queries > 0 ? static_cast<double>(checksum) / static_cast<double>(queries)
                  : 0.0;
  e13_emit(state, "e13_ball_seed");
}

void E13_BallScratch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  const Graph& g = cached_regular(n);
  BfsScratch scratch;
  std::size_t checksum = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBallQueries; ++i) {
      scratch.run(g, center(i, n), r);
      checksum += scratch.order().size();
    }
  }
  benchmark::DoNotOptimize(checksum);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBallQueries; ++i) {
    scratch.run(g, center(i, n), r);
    checksum += scratch.order().size();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  benchmark::DoNotOptimize(checksum);
  state.counters["queries_per_s"] = secs > 0.0 ? kBallQueries / secs : 0.0;
  const auto it = baselines().find({n, r});
  state.counters["speedup_vs_seed"] =
      (it != baselines().end() && secs > 0.0) ? it->second / secs : 0.0;
  e13_emit(state, "e13_ball_scratch");
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E13_BallSeedStyle)
    ->ArgsProduct({{100000, 1000000}, {2}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(deltacol::bench::E13_BallScratch)
    ->ArgsProduct({{100000, 1000000}, {2}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);
