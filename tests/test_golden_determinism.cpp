// Golden regression for the runtime's one execution discipline: the
// fingerprints below are frozen historical results, so this suite proves
// that refactors of the runtime leave every observable byte-for-byte
// untouched — not just shape-invariant (which test_parallel_determinism
// already pins) but identical to the historical results. If a change
// legitimately alters the output (a new phase, a different charge),
// regenerate the table with the generator in tests/README.md and say so in
// the commit; an unexplained mismatch is a determinism regression.
//
// The fingerprint folds every observable of a DeltaColoringResult — the
// coloring bytes, Delta, the ledger total and per-phase breakdown, and all
// PhaseStats counters — through FNV-1a, and is checked at threads ∈
// {1, 2, 8}: every thread count must land on the one frozen hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/api.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "test_support.h"
#include "util/rng.h"

namespace deltacol {
namespace {

std::uint64_t result_fingerprint(const DeltaColoringResult& r) {
  using test_support::fnv1a;
  std::uint64_t h = test_support::kFnvOffset;
  for (Color c : r.coloring) h = fnv1a(h, static_cast<std::uint64_t>(c));
  h = fnv1a(h, static_cast<std::uint64_t>(r.delta));
  h = fnv1a(h, static_cast<std::uint64_t>(r.ledger.total()));
  for (const auto& e : r.ledger.breakdown()) {
    for (char ch : e.phase) h = fnv1a(h, static_cast<std::uint64_t>(ch));
    h = fnv1a(h, static_cast<std::uint64_t>(e.rounds));
  }
  const PhaseStats& s = r.stats;
  for (int x : {s.num_dccs_selected, s.base_layer_size, s.num_b_layers,
                s.num_selected, s.num_tnodes, s.num_marked, s.num_c_layers,
                s.h_vertices, s.happy_vertices, s.leftover_vertices,
                s.leftover_components, s.max_leftover_component,
                s.anchors_empty_fallbacks, s.brooks_fixes, s.repairs,
                s.retries_used}) {
    h = fnv1a(h, static_cast<std::uint64_t>(x));
  }
  return h;
}

struct Golden {
  const char* graph;
  const char* alg;
  std::uint64_t hash;
};

// Captured with seed 2024, serial run (threads = 1, shards = 1). The
// "large" rows pin Phase (1) at rand_large's default radius r = 2; the
// "small" rows reach it only at r = ceil(log2 log2 n) per component. A
// "-rand" row runs its algorithm with the randomized list engine, which
// also builds the (Delta + 1) schedule by trial coloring; "ps" is the
// network-decomposition baseline, whose cluster graph is colored by the
// randomized engine with per-vertex palettes deg + 1. The power-law rows
// pin the wide palettes (Delta > 64) of the schedule and the layer
// instances, and "naive" and "-rand" send them through the randomized
// engine. small-rand leaves the power-law graph out: one call takes
// seconds.
constexpr Golden kGoldens[] = {
    {"regular-500-6", "det", 0x9dc681a19a5fb1d4ULL},
    {"regular-500-6", "small", 0x4ae385a1b0f38fb2ULL},
    {"regular-500-6", "naive", 0x6f55bab76486c993ULL},
    {"gallai-400-4", "det", 0x86012e5a3757d392ULL},
    {"gallai-400-4", "small", 0x0767e5054e9cd0fcULL},
    {"gallai-400-4", "naive", 0x1ff9825bc0e4a23cULL},
    {"sparse-400-6", "det", 0x6eda4901743b8e72ULL},
    {"sparse-400-6", "small", 0xebd47ab2aa0c5aa5ULL},
    {"sparse-400-6", "naive", 0x89f3445d9c3a8241ULL},
    {"3-components", "det", 0xc2048990d5fb952eULL},
    {"3-components", "small", 0x5981a6bb976bfd8fULL},
    {"3-components", "naive", 0x2c3d2e81a25cf2f0ULL},
    {"triangle-cactus", "det", 0xbcf2c1db7d613405ULL},
    {"triangle-cactus", "small", 0x3aedd525c48be4d6ULL},
    {"triangle-cactus", "naive", 0xc4e498016540fa74ULL},
    {"regular-500-6", "large", 0x5a939e36c0fa9290ULL},
    {"gallai-400-4", "large", 0xaf66ac8718b9c794ULL},
    {"sparse-400-6", "large", 0x03ffe0f54802b502ULL},
    {"3-components", "large", 0xb64d8f71d8ae215aULL},
    {"triangle-cactus", "large", 0x92dc5e087f2c9a63ULL},
    {"powerlaw-2000-3", "det", 0xb0eb6dc2d98c20e1ULL},
    {"powerlaw-2000-3", "large", 0x0575680c4f836146ULL},
    {"regular-500-6", "det-rand", 0x20dbf5da205a704eULL},
    {"3-components", "det-rand", 0xd9587578ed3ca6c2ULL},
    {"regular-500-6", "large-rand", 0x89e80d57d258c6edULL},
    {"3-components", "large-rand", 0x982f20236b31d095ULL},
    {"powerlaw-2000-3", "large-rand", 0x3d71525bf03e6c35ULL},
    {"regular-500-6", "small-rand", 0x3ad447c4c4552e7bULL},
    {"3-components", "small-rand", 0xb010a722c2b99ea0ULL},
    {"regular-500-6", "ps", 0x1d1777903b0716ddULL},
    {"gallai-400-4", "ps", 0x6b55bef053173e69ULL},
    {"sparse-400-6", "ps", 0x82086afb7503dd9fULL},
    {"3-components", "ps", 0x7b71104044c77869ULL},
    {"triangle-cactus", "ps", 0xaa13247b7810a6c0ULL},
    {"powerlaw-2000-3", "ps", 0x0a11e9601b27c8d4ULL},
    {"powerlaw-2000-3", "det-rand", 0xd9d5bd212eaca5c0ULL},
    {"powerlaw-2000-3", "naive", 0x42a2b223d838ab30ULL},
};

// A "-rand" suffix runs the algorithm with the randomized list engine.
bool randomized_engine(const std::string& tag) {
  return tag.ends_with("-rand");
}

Algorithm alg_from_tag(std::string tag) {
  if (randomized_engine(tag)) tag.resize(tag.size() - 5);
  if (tag == "det") return Algorithm::kDeterministic;
  if (tag == "small") return Algorithm::kRandomizedSmall;
  if (tag == "large") return Algorithm::kRandomizedLarge;
  if (tag == "ps") return Algorithm::kBaselineND;
  return Algorithm::kBaselineGreedyBrooks;
}

TEST(GoldenDeterminism, EveryShapeLandsOnThePrePrFingerprint) {
  // The zoo of tests/test_parallel_determinism.cpp, reproduced exactly
  // (same seed, same construction order — the generators consume one
  // shared stream), then a power-law graph from a stream of its own.
  Rng rng(71);
  Rng powerlaw_rng(29);
  struct Workload {
    const char* name;
    Graph g;
  };
  const Workload zoo[] = {
      {"regular-500-6", random_regular(500, 6, rng)},
      {"gallai-400-4", random_gallai_tree(400, 4, rng)},
      {"sparse-400-6", random_graph_max_degree(400, 6, 1.8, rng)},
      {"3-components",
       disjoint_union(disjoint_union(random_regular(200, 5, rng),
                                     random_regular(90, 4, rng)),
                      random_graph_max_degree(150, 6, 1.8, rng))},
      {"triangle-cactus", triangle_cactus(1500)},
      {"powerlaw-2000-3", preferential_attachment(2000, 3, powerlaw_rng)},
  };
  for (const Golden& golden : kGoldens) {
    const Graph* g = nullptr;
    for (const auto& w : zoo) {
      if (std::string(w.name) == golden.graph) g = &w.g;
    }
    ASSERT_NE(g, nullptr) << golden.graph;
    const Algorithm alg = alg_from_tag(golden.alg);
    for (int threads : {1, 2, 8}) {
      DeltaColoringOptions opt;
      opt.seed = 2024;
      opt.num_threads = threads;
      if (randomized_engine(golden.alg)) {
        opt.list_engine = ListEngine::kRandomized;
      }
      const DeltaColoringResult res = delta_color(*g, alg, opt);
      EXPECT_EQ(result_fingerprint(res), golden.hash)
          << golden.graph << " / " << golden.alg << " / T=" << threads;
    }
  }
}

}  // namespace
}  // namespace deltacol
