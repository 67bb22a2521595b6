// Baselines the paper improves upon.
//
// run_baseline_nd — Theorem 21 (= [PS95], as rephrased and reproved by the
// paper): a distance-R ruling set defines layers; each layer's (deg+1)-list
// instance is completed by sweeping the color classes of a network
// decomposition and letting each cluster extend the coloring internally
// after gathering itself (cost per layer: #colors * (diameter + 1) rounds).
// With C, D = O(log n) and O(log_Delta n) layers this lands at the
// O(log^3 n / log Delta) complexity of [PS92].
//
// run_baseline_greedy_brooks — the "obvious" approach: distributed
// (Delta+1)-coloring, then eliminate the overflow color class by scheduled
// applications of the distributed Brooks fix.
#include <numeric>

#include "brooks/distributed_brooks.h"
#include "coloring/list_coloring.h"
#include "core/internal.h"
#include "decomp/network_decomposition.h"
#include "mis/mis.h"
#include "mis/ruling_set.h"
#include "util/check.h"

namespace deltacol::internal {

namespace {

// Completes the (deg+1)-list instance on `vertices` by sweeping ND color
// classes; clusters of the active class extend the coloring internally
// (greedy in id order — inside one cluster the work is sequential-local
// after a D-round gather; distinct same-color clusters are non-adjacent).
void color_vertex_set_via_nd(const Graph& g, const std::vector<int>& vertices,
                             int delta, const NetworkDecomposition& nd,
                             Coloring& c, RoundLedger& ledger,
                             std::string_view phase) {
  std::vector<char> in_set(static_cast<std::size_t>(g.num_vertices()), 0);
  for (int v : vertices) {
    if (c[static_cast<std::size_t>(v)] == kUncolored) {
      in_set[static_cast<std::size_t>(v)] = 1;
    }
  }
  for (int k = 0; k < nd.num_colors; ++k) {
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (!in_set[static_cast<std::size_t>(v)]) continue;
      const int cl = nd.cluster[static_cast<std::size_t>(v)];
      if (nd.cluster_color[static_cast<std::size_t>(cl)] != k) continue;
      const auto x = first_free_color(g, c, v, delta);
      DC_ENSURE(x.has_value(),
                "ND sweep: vertex ran out of colors (instance was not deg+1)");
      c[static_cast<std::size_t>(v)] = *x;
      in_set[static_cast<std::size_t>(v)] = 0;
    }
    ledger.charge(nd.max_diameter + 1, phase);
  }
}

}  // namespace

void run_baseline_nd(ComponentContext& ctx, Coloring& c) {
  // The decomposition comes first, so `ps/decomposition` charges first; the
  // rest is Theorem 4's pipeline with the ND sweep as its layer step.
  const NetworkDecomposition nd = random_shift_decomposition(
      ctx.g, 0.25, ctx.rng, ctx.ledger, "ps/decomposition", ctx.pool);
  run_layered_brooks(
      ctx, c, "ps", [&](const Layering& layering, std::string_view phase) {
        for (int i = layering.num_layers - 1; i >= 1; --i) {
          color_vertex_set_via_nd(
              ctx.g, layering.members[static_cast<std::size_t>(i)],
              ctx.delta, nd, c, ctx.ledger, phase);
        }
      });
}

void run_baseline_greedy_brooks(ComponentContext& ctx, Coloring& c) {
  const Graph& g = ctx.g;
  const int n = g.num_vertices();
  const int delta = ctx.delta;

  // Stage 1: (Delta+1)-coloring by randomized trial coloring.
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  Coloring wide(static_cast<std::size_t>(n), kUncolored);
  color_vertex_set_as_list_instance(
      g, all, [delta](int) { return delta + 1; }, ctx.schedule,
      ctx.schedule_colors, ListEngine::kRandomized, &ctx.rng, wide,
      ctx.ledger, "naive/delta-plus-one", ctx.pool);

  // Stage 2: keep colors < Delta; the overflow class (an independent set)
  // is repaired by Brooks fixes scheduled via an MIS of the (2 rho + 1)-th
  // power so concurrent fixes never touch the same vertex.
  for (int v = 0; v < n; ++v) {
    c[static_cast<std::size_t>(v)] =
        wide[static_cast<std::size_t>(v)] == delta
            ? kUncolored
            : wide[static_cast<std::size_t>(v)];
  }
  const int rho = brooks_search_radius(n, delta);
  for (;;) {
    std::vector<int> overflow;
    for (int v = 0; v < n; ++v) {
      if (c[static_cast<std::size_t>(v)] == kUncolored) overflow.push_back(v);
    }
    if (overflow.empty()) break;
    const std::vector<int> batch =
        ruling_set(g, overflow, 2 * rho + 2, RulingSetEngine::kRandomized,
                   &ctx.rng, ctx.ledger, "naive/schedule", ctx.pool);
    DC_ENSURE(!batch.empty(), "scheduling MIS returned empty batch");
    // The batch is a distance-(2*rho+2) ruling set, so its fixes have
    // disjoint balls and run concurrently; an emergency recolor (serial
    // pass) may side-color later batch members, which are then skipped.
    const auto fixes =
        schedule_disjoint_brooks_fixes(g, c, batch, delta, rho, ctx.pool);
    ctx.stats.brooks_fixes += fixes.num_executed;
    ctx.ledger.charge(2 * rho + 1, "naive/brooks-fixes");
  }
}

}  // namespace deltacol::internal
