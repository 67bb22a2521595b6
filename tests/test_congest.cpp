// The CONGEST mode's differential contract (api.h congest_bits,
// local/round_ledger.h "CongestLedger mode"):
//
//  * accounting overlay — for every bandwidth cap B, delta_color produces a
//    coloring, ledger STRUCTURE (phase set) and PhaseStats bit-identical to
//    the LOCAL run; at B large enough for every message (the finite stand-in
//    for B = infinity) even the per-phase round counts match LOCAL exactly;
//  * monotonicity — total charged rounds are non-increasing in B (every
//    charge is ceil(load / B) of a B-independent load);
//  * thread-invariance — the congest charge folds are order-free maxima, so
//    every thread count T yields identical charged rounds, and the
//    message-passing MIS charges identically on every (shards, T) runtime.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/api.h"
#include "graph/generators.h"
#include "graph/ops.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "runtime/mailbox.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol {
namespace {

// A finite stand-in for B = infinity: far wider than any single message the
// pipelines send, so the congest code path executes on every round and must
// still recover the LOCAL charge of exactly 1 per message round.
constexpr std::int64_t kHugeB = 1'000'000'000;

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

struct Workload {
  const char* name;
  Graph g;
};

std::vector<Workload> generator_zoo() {
  Rng rng(71);
  std::vector<Workload> zoo;
  zoo.push_back({"regular-500-6", random_regular(500, 6, rng)});
  zoo.push_back({"gallai-400-4", random_gallai_tree(400, 4, rng)});
  zoo.push_back({"sparse-400-6", random_graph_max_degree(400, 6, 1.8, rng)});
  zoo.push_back(
      {"3-components",
       disjoint_union(disjoint_union(random_regular(200, 5, rng),
                                     random_regular(90, 4, rng)),
                      random_graph_max_degree(150, 6, 1.8, rng))});
  zoo.push_back({"triangle-cactus", triangle_cactus(1500)});
  return zoo;
}

const Algorithm kAllAlgorithms[] = {
    Algorithm::kDeterministic,       Algorithm::kRandomizedLarge,
    Algorithm::kRandomizedSmall,     Algorithm::kBaselineND,
    Algorithm::kBaselineGreedyBrooks,
};

// --- the RoundLedger's congest arithmetic ----------------------------------

TEST(CongestLedger, MessageRoundCostMath) {
  RoundLedger local;
  EXPECT_EQ(local.congest_bits(), 0);
  EXPECT_EQ(local.message_round_cost(0), 1);
  EXPECT_EQ(local.message_round_cost(1'000'000), 1);

  RoundLedger congest;
  congest.set_congest_bits(64);
  EXPECT_EQ(congest.congest_bits(), 64);
  EXPECT_EQ(congest.message_round_cost(0), 1);   // the barrier still happened
  EXPECT_EQ(congest.message_round_cost(1), 1);
  EXPECT_EQ(congest.message_round_cost(64), 1);  // exact fit
  EXPECT_EQ(congest.message_round_cost(65), 2);  // one bit over
  EXPECT_EQ(congest.message_round_cost(128), 2);
  EXPECT_EQ(congest.message_round_cost(129), 3);

  // Negative caps normalize to LOCAL.
  congest.set_congest_bits(-5);
  EXPECT_EQ(congest.congest_bits(), 0);
  EXPECT_EQ(congest.message_round_cost(1'000'000), 1);
}

TEST(CongestLedger, ChargeMessageRoundMultiplier) {
  RoundLedger ledger;
  ledger.set_congest_bits(16);
  ledger.charge_message_round(65, "a", 3);  // ceil(65/16) = 5, times 3
  EXPECT_EQ(ledger.phase_total("a"), 15);
  EXPECT_EQ(ledger.total(), 15);
}

TEST(CongestLedger, ModeIsConfigurationNotACharge) {
  RoundLedger a;
  a.set_congest_bits(32);
  a.charge(7, "x");
  a.reset();  // drops charges, keeps the mode
  EXPECT_EQ(a.total(), 0);
  EXPECT_EQ(a.congest_bits(), 32);

  const RoundLedger copy = a;  // copied by copy operations
  EXPECT_EQ(copy.congest_bits(), 32);

  RoundLedger parent;  // but never propagated by merge()
  parent.merge(a);
  EXPECT_EQ(parent.congest_bits(), 0);
}

// --- full-pipeline differential: B = infinity recovers LOCAL exactly -------

TEST(CongestDifferential, HugeBIsBitIdenticalToLocalAcrossZoo) {
  for (const auto& w : generator_zoo()) {
    for (Algorithm alg : kAllAlgorithms) {
      DeltaColoringOptions local_opt;
      local_opt.seed = 2026;
      const DeltaColoringResult local = delta_color(w.g, alg, local_opt);
      validate_delta_coloring(w.g, local.coloring, local.delta);

      DeltaColoringOptions congest_opt = local_opt;
      congest_opt.congest_bits = kHugeB;
      const DeltaColoringResult congest = delta_color(w.g, alg, congest_opt);
      const std::string label =
          std::string(w.name) + " / " + algorithm_name(alg);
      EXPECT_EQ(congest.coloring, local.coloring) << label;
      EXPECT_EQ(congest.delta, local.delta) << label;
      expect_same_ledger(congest.ledger, local.ledger, label);
      expect_same_stats(congest.stats, local.stats, label);
    }
  }
}

// --- monotone round inflation: rounds never increase with more bandwidth ---

TEST(CongestDifferential, RoundsMonotoneNonIncreasingInB) {
  const std::int64_t caps[] = {16, 64, 256, kHugeB};
  for (const auto& w : generator_zoo()) {
    for (Algorithm alg : kAllAlgorithms) {
      std::int64_t prev_rounds = -1;
      Coloring first_coloring;
      for (std::int64_t B : caps) {
        DeltaColoringOptions opt;
        opt.seed = 7;
        opt.congest_bits = B;
        const DeltaColoringResult res = delta_color(w.g, alg, opt);
        const std::string label = std::string(w.name) + " / " +
                                  algorithm_name(alg) + " / B=" +
                                  std::to_string(B);
        validate_delta_coloring(w.g, res.coloring, res.delta);
        if (first_coloring.empty()) {
          first_coloring = res.coloring;
        } else {
          // Execution is B-independent: only the charges may differ.
          EXPECT_EQ(res.coloring, first_coloring) << label;
        }
        if (prev_rounds >= 0) {
          EXPECT_LE(res.ledger.total(), prev_rounds)
              << label << ": more bandwidth must never cost more rounds";
        }
        prev_rounds = res.ledger.total();
      }
    }
  }
}

TEST(CongestDifferential, TightCapActuallyInflatesRounds) {
  // Not just monotone: a 16-bit cap must genuinely charge more than LOCAL
  // (the 64-bit priority exchanges of the MIS machinery need ceil(64/16) = 4
  // sub-rounds each). Guards against the overlay silently charging 1 always.
  Rng rng(5);
  const Graph g = random_regular(400, 6, rng);
  DeltaColoringOptions local_opt;
  local_opt.seed = 11;
  DeltaColoringOptions tight_opt = local_opt;
  tight_opt.congest_bits = 16;
  for (Algorithm alg :
       {Algorithm::kRandomizedLarge, Algorithm::kRandomizedSmall}) {
    const auto local = delta_color(g, alg, local_opt);
    const auto tight = delta_color(g, alg, tight_opt);
    EXPECT_EQ(tight.coloring, local.coloring) << algorithm_name(alg);
    EXPECT_GT(tight.ledger.total(), local.ledger.total())
        << algorithm_name(alg);
  }
}

// --- thread-invariance of congest charges ----------------------------------

TEST(CongestDifferential, ChargesInvariantAcrossThreadsGolden) {
  Rng rng(13);
  const Graph g = random_regular(300, 5, rng);
  for (std::int64_t B : {std::int64_t{16}, std::int64_t{64}, kHugeB}) {
    DeltaColoringOptions base;
    base.seed = 77;
    base.congest_bits = B;
    base.num_threads = 1;
    const DeltaColoringResult oracle =
        delta_color(g, Algorithm::kRandomizedSmall, base);
    for (int threads : {2, 8}) {
      DeltaColoringOptions opt = base;
      opt.num_threads = threads;
      const DeltaColoringResult res =
          delta_color(g, Algorithm::kRandomizedSmall, opt);
      const std::string label =
          "B=" + std::to_string(B) + " T=" + std::to_string(threads);
      EXPECT_EQ(res.coloring, oracle.coloring) << label;
      expect_same_ledger(res.ledger, oracle.ledger, label);
      expect_same_stats(res.stats, oracle.stats, label);
    }
  }
}

// --- engine-level differential on the literal message-passing MIS ----------

TEST(CongestEngine, LubyMessagePassingChargesMatchAcrossEnginesAndB) {
  Rng gen(31);
  // Regular (min degree > 0): every executed round moves at least one
  // message, so the per-round factorization below is exact.
  const Graph g = random_regular(200, 6, gen);
  for (std::int64_t B : {std::int64_t{0}, std::int64_t{16}, std::int64_t{64},
                         kHugeB}) {
    // Serial reference.
    Rng rng(99);
    RoundLedger serial_ledger;
    serial_ledger.set_congest_bits(B);
    const auto serial_mis =
        luby_mis_message_passing(g, rng, serial_ledger, "mis");
    EXPECT_TRUE(is_mis(g, serial_mis));
    // Every executed round carries at most one 65-bit message per directed
    // edge, so the total factors exactly: rounds * ceil(65 / B).
    const std::int64_t per_round =
        serial_ledger.message_round_cost(kLubyMessageBits);
    EXPECT_EQ(serial_ledger.total() % per_round, 0) << "B=" << B;

    for (int num_shards : {1, 2, 8}) {
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
        ShardRuntime shards(g, num_shards, pool_ptr);
        Rng rng2(99);
        RoundLedger ledger;
        ledger.set_congest_bits(B);
        const auto mis = luby_mis_message_passing(g, rng2, ledger, "mis",
                                                  pool_ptr, &shards);
        EXPECT_EQ(mis, serial_mis)
            << "B=" << B << " S=" << num_shards << " T=" << threads;
        EXPECT_EQ(ledger.total(), serial_ledger.total())
            << "B=" << B << " S=" << num_shards << " T=" << threads;
      }
    }
  }
}

TEST(CongestEngine, LubyHugeBMatchesLocalAndTightBInflates) {
  Rng gen(41);
  const Graph g = random_regular(150, 4, gen);
  auto run = [&](std::int64_t B) {
    Rng rng(7);
    RoundLedger ledger;
    ledger.set_congest_bits(B);
    luby_mis_message_passing(g, rng, ledger, "mis");
    return ledger.total();
  };
  const std::int64_t local = run(0);
  EXPECT_EQ(run(kHugeB), local);
  // ceil(65/16) = 5: every executed round is charged fivefold.
  EXPECT_EQ(run(16), local * 5);
  // ceil(65/64) = 2: doubled.
  EXPECT_EQ(run(64), local * 2);
}

}  // namespace
}  // namespace deltacol
