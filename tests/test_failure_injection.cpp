// Failure injection: force the algorithms down their fallback paths and
// check both that the fallbacks complete correctly and that strict mode
// surfaces violations instead of papering over them.
#include <gtest/gtest.h>

#include <string>

#include "core/api.h"
#include "graph/generators.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(FailureInjection, TooSmallBackoffIsRejected) {
  Rng rng(1);
  const Graph g = random_regular(100, 4, rng);
  DeltaColoringOptions opt;
  opt.backoff = 2;  // marks of distinct T-nodes could become adjacent
  opt.max_retries = 0;
  EXPECT_THROW(delta_color(g, Algorithm::kRandomizedLarge, opt),
               ContractViolation);
}

TEST(FailureInjection, ZeroSelectionStillCompletes) {
  // No T-nodes at all: Section 4.3 has to swallow everything that is not
  // boundary-happy. Exercises the anchors-empty analysis.
  Rng rng(2);
  const Graph g = random_regular(300, 4, rng);
  DeltaColoringOptions opt;
  opt.selection_prob = 0.0;
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
}

TEST(FailureInjection, SaturatingSelectionStillCompletes) {
  // p = 1: everyone selects, (almost) everyone backs off.
  Rng rng(3);
  const Graph g = random_regular(300, 4, rng);
  DeltaColoringOptions opt;
  opt.selection_prob = 1.0;
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
}

TEST(FailureInjection, TinyDccRadius) {
  // r = 1 sees almost no DCCs: the shattering phases must carry the run.
  Rng rng(4);
  const Graph g = random_regular(400, 4, rng);
  DeltaColoringOptions opt;
  opt.dcc_radius = 1;
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
}

TEST(FailureInjection, StrictModeOnBenignInstancePasses) {
  // On a torus with r = 2 everything is removed via DCC layers; the strict
  // paper path needs no fallback.
  const Graph g = grid_graph(10, 10, true);
  DeltaColoringOptions opt;
  opt.strict = true;
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
  EXPECT_EQ(res.stats.repairs, 0);
  EXPECT_EQ(res.stats.anchors_empty_fallbacks, 0);
}

TEST(FailureInjection, StrictModeOverTheZooNeedsNoFallback) {
  // The paper path alone colors every zoo graph: with strict mode on, no
  // algorithm at any of these seeds throws, repairs or falls back.
  const Algorithm algorithms[] = {
      Algorithm::kDeterministic, Algorithm::kRandomizedLarge,
      Algorithm::kRandomizedSmall, Algorithm::kBaselineND,
      Algorithm::kBaselineGreedyBrooks};
  for (const auto& w : generator_zoo()) {
    for (const Algorithm alg : algorithms) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const std::string tag = w.name + "/" + algorithm_name(alg) +
                                "/seed=" + std::to_string(seed);
        DeltaColoringOptions opt;
        opt.strict = true;
        opt.seed = seed;
        DeltaColoringResult res;
        ASSERT_NO_THROW(res = delta_color(w.graph, alg, opt)) << tag;
        EXPECT_NO_THROW(validate_delta_coloring(w.graph, res.coloring,
                                                res.delta))
            << tag;
        EXPECT_EQ(res.stats.repairs, 0) << tag;
        EXPECT_EQ(res.stats.anchors_empty_fallbacks, 0) << tag;
      }
    }
  }
}

TEST(FailureInjection, RetriesRecoverFromBadSeeds) {
  // Even with retries disabled, runs succeed on these instances; with
  // retries enabled the result must be identical in validity.
  Rng rng(5);
  const Graph g = random_regular(200, 4, rng);
  DeltaColoringOptions opt;
  opt.max_retries = 3;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    opt.seed = seed;
    const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
    EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, 4));
  }
}

TEST(FailureInjection, RepairPathCountsItsWork) {
  // Force heavy leftover by zero selection on a tree (no DCC, H = G); the
  // leaves make everything boundary-happy eventually, but deep interior
  // nodes may still reach Section 4.3 / repairs. The run must account any
  // repair rounds in the ledger.
  Rng rng(6);
  const Graph g = random_tree(1500, 4, rng);
  DeltaColoringOptions opt;
  opt.selection_prob = 0.0;
  const auto res = delta_color(g, Algorithm::kRandomizedSmall, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, g.max_degree()));
  if (res.stats.repairs > 0) {
    EXPECT_GT(res.ledger.phase_total("repair"), 0);
  }
}

TEST(FailureInjection, GallaiTreeWithPaperConstants) {
  // Adversarial: no DCCs anywhere + asymptotic constants that make T-nodes
  // essentially impossible at this size. Correctness must not depend on the
  // w.h.p. events firing.
  Rng rng(7);
  const Graph g = random_gallai_tree(250, 4, rng);
  DeltaColoringOptions opt;
  opt.use_paper_constants = true;
  const auto res = delta_color(g, Algorithm::kRandomizedLarge, opt);
  EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, g.max_degree()));
}

}  // namespace
}  // namespace deltacol
