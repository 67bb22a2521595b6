// The parallel runtime's central guarantee (DESIGN.md "Runtime"):
// delta_color at num_threads ∈ {1, 2, 8} produces, for every Algorithm and
// a fixed seed, bit-identical colorings, identical RoundLedger totals and
// per-phase breakdowns, and identical PhaseStats to the serial path
// (num_threads = 1 takes the runtime's inline serial branches everywhere).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/api.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "util/rng.h"

namespace deltacol {
namespace {

void expect_same_ledger(const RoundLedger& a, const RoundLedger& b,
                        const std::string& label) {
  EXPECT_EQ(a.total(), b.total()) << label;
  ASSERT_EQ(a.breakdown().size(), b.breakdown().size()) << label;
  for (std::size_t i = 0; i < a.breakdown().size(); ++i) {
    EXPECT_EQ(a.breakdown()[i].phase, b.breakdown()[i].phase) << label;
    EXPECT_EQ(a.breakdown()[i].rounds, b.breakdown()[i].rounds)
        << label << " phase " << a.breakdown()[i].phase;
  }
}

void expect_same_stats(const PhaseStats& a, const PhaseStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.num_dccs_selected, b.num_dccs_selected) << label;
  EXPECT_EQ(a.base_layer_size, b.base_layer_size) << label;
  EXPECT_EQ(a.num_b_layers, b.num_b_layers) << label;
  EXPECT_EQ(a.num_selected, b.num_selected) << label;
  EXPECT_EQ(a.num_tnodes, b.num_tnodes) << label;
  EXPECT_EQ(a.num_marked, b.num_marked) << label;
  EXPECT_EQ(a.num_c_layers, b.num_c_layers) << label;
  EXPECT_EQ(a.h_vertices, b.h_vertices) << label;
  EXPECT_EQ(a.happy_vertices, b.happy_vertices) << label;
  EXPECT_EQ(a.leftover_vertices, b.leftover_vertices) << label;
  EXPECT_EQ(a.leftover_components, b.leftover_components) << label;
  EXPECT_EQ(a.max_leftover_component, b.max_leftover_component) << label;
  EXPECT_EQ(a.anchors_empty_fallbacks, b.anchors_empty_fallbacks) << label;
  EXPECT_EQ(a.brooks_fixes, b.brooks_fixes) << label;
  EXPECT_EQ(a.repairs, b.repairs) << label;
  EXPECT_EQ(a.retries_used, b.retries_used) << label;
}

const Algorithm kAllAlgorithms[] = {
    Algorithm::kDeterministic,       Algorithm::kRandomizedLarge,
    Algorithm::kRandomizedSmall,     Algorithm::kBaselineND,
    Algorithm::kBaselineGreedyBrooks,
};

void check_graph(const Graph& g, std::uint64_t seed, const char* graph_name) {
  for (Algorithm alg : kAllAlgorithms) {
    DeltaColoringOptions serial_opt;
    serial_opt.seed = seed;
    serial_opt.num_threads = 1;
    const DeltaColoringResult serial = delta_color(g, alg, serial_opt);
    validate_delta_coloring(g, serial.coloring, serial.delta);

    for (int threads : {2, 8}) {
      DeltaColoringOptions opt = serial_opt;
      opt.num_threads = threads;
      const DeltaColoringResult res = delta_color(g, alg, opt);
      const std::string label = std::string(graph_name) + " / " +
                                algorithm_name(alg) + " / " +
                                std::to_string(threads) + " threads";
      EXPECT_EQ(res.coloring, serial.coloring) << label;
      EXPECT_EQ(res.delta, serial.delta) << label;
      expect_same_ledger(res.ledger, serial.ledger, label);
      expect_same_stats(res.stats, serial.stats, label);
    }
  }
}

TEST(ParallelDeterminism, AllAlgorithmsOnRegularGraph) {
  Rng rng(17);
  check_graph(random_regular(900, 6, rng), 42, "regular-900-6");
}

TEST(ParallelDeterminism, AllAlgorithmsOnConstantDegree) {
  Rng rng(23);
  // Delta = 4 satisfies every algorithm's precondition (incl. Thm 3's
  // Delta >= 4) while exercising the small-Delta machinery.
  check_graph(random_regular(700, 4, rng), 7, "regular-700-4");
}

TEST(ParallelDeterminism, MultiComponentGraphSchedulesDeterministically) {
  // Several components of different sizes: pooled_chunks fans them out;
  // colorings, max-charging and stats folds must stay index-ordered.
  Rng rng(31);
  const Graph a = random_regular(400, 5, rng);
  const Graph b = random_regular(150, 4, rng);
  const Graph c = random_graph_max_degree(250, 6, 1.8, rng);
  check_graph(disjoint_union(disjoint_union(a, b), c), 1234, "3-components");
}

TEST(ParallelDeterminism, GallaiTreeHardCase) {
  // DCC-free everywhere: exercises the leftover/small-component path of the
  // randomized pipeline and the Brooks machinery of the deterministic one.
  Rng rng(47);
  check_graph(random_gallai_tree(500, 4, rng), 99, "gallai-500");
}

TEST(ParallelDeterminism, RandomizedListEngineSharesOneRngStream) {
  // The randomized list engine consumes the shared Rng in active-vertex
  // order; the parallel restructuring must preserve that stream exactly.
  Rng rng(53);
  const Graph g = random_regular(600, 6, rng);
  for (Algorithm alg : {Algorithm::kRandomizedLarge, Algorithm::kDeterministic}) {
    DeltaColoringOptions o1;
    o1.seed = 5;
    o1.list_engine = ListEngine::kRandomized;
    o1.num_threads = 1;
    DeltaColoringOptions o8 = o1;
    o8.num_threads = 8;
    const auto r1 = delta_color(g, alg, o1);
    const auto r8 = delta_color(g, alg, o8);
    EXPECT_EQ(r1.coloring, r8.coloring) << algorithm_name(alg);
    expect_same_ledger(r1.ledger, r8.ledger, algorithm_name(alg));
    expect_same_stats(r1.stats, r8.stats, algorithm_name(alg));
  }
}

TEST(ParallelDeterminism, LeftoverComponentFanOutIsDeterministic) {
  // A deep Gallai-tree interior with a small happiness radius leaves
  // SEVERAL leftover components inside one nice component, so Phase (6)'s
  // inner pooled_chunks fan-out — not just the outer per-component one — is
  // what runs here. Pre-split RNG streams, index-private ledgers/stats
  // and the max-total charge must make every observable thread-invariant.
  const Graph g = triangle_cactus(5000);
  DeltaColoringOptions serial_opt;
  serial_opt.seed = 9;
  serial_opt.small_variant_radius_cap = 2;
  serial_opt.num_threads = 1;
  const DeltaColoringResult serial =
      delta_color(g, Algorithm::kRandomizedSmall, serial_opt);
  validate_delta_coloring(g, serial.coloring, serial.delta);
  ASSERT_GE(serial.stats.leftover_components, 2)
      << "workload no longer exercises the Phase-(6) fan-out";

  for (int threads : {2, 8}) {
    DeltaColoringOptions opt = serial_opt;
    opt.num_threads = threads;
    const DeltaColoringResult res =
        delta_color(g, Algorithm::kRandomizedSmall, opt);
    const std::string label =
        "leftover-scheduler / " + std::to_string(threads) + " threads";
    EXPECT_EQ(res.coloring, serial.coloring) << label;
    expect_same_ledger(res.ledger, serial.ledger, label);
    expect_same_stats(res.stats, serial.stats, label);
  }
}

TEST(ParallelDeterminism, AutoThreadCountAlsoMatches) {
  Rng rng(61);
  const Graph g = random_regular(300, 4, rng);
  DeltaColoringOptions o1;
  o1.seed = 3;
  o1.num_threads = 1;
  DeltaColoringOptions oauto = o1;
  oauto.num_threads = 0;  // all hardware threads
  const auto r1 = delta_color(g, Algorithm::kRandomizedSmall, o1);
  const auto rauto = delta_color(g, Algorithm::kRandomizedSmall, oauto);
  EXPECT_EQ(r1.coloring, rauto.coloring);
  expect_same_ledger(r1.ledger, rauto.ledger, "auto threads");
}

// perturb_salt jitters chunk counts and injects stalls (thread_pool.cpp) as
// a pure function of (salt, shape): chunk boundaries and timing are never
// observable, so every salt must reproduce the unsalted run bit for bit.
TEST(ParallelDeterminism, PerturbationSaltSweep) {
  Rng grng(83);
  const Graph g = random_regular(600, 5, grng);
  for (Algorithm alg :
       {Algorithm::kDeterministic, Algorithm::kRandomizedSmall}) {
    DeltaColoringOptions base;
    base.seed = 7;
    base.num_threads = 8;
    const DeltaColoringResult ref = delta_color(g, alg, base);
    validate_delta_coloring(g, ref.coloring, ref.delta);
    for (std::uint64_t salt : {1ull, 2ull, 0x9e3779b97f4a7c15ull}) {
      DeltaColoringOptions opt = base;
      opt.perturb_salt = salt;
      const DeltaColoringResult res = delta_color(g, alg, opt);
      const std::string label =
          algorithm_name(alg) + " salt=" + std::to_string(salt);
      EXPECT_EQ(res.coloring, ref.coloring) << label;
      expect_same_ledger(res.ledger, ref.ledger, label);
      expect_same_stats(res.stats, ref.stats, label);
    }
  }
}

}  // namespace
}  // namespace deltacol
