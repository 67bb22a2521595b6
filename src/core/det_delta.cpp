// Theorem 4: deterministic distributed Delta-coloring via the layering
// technique (paper Section 3).
//
//   (1) Build B0: a distance-R ruling set, R chosen so that the Brooks
//       recoloring balls of distinct B0 nodes cannot overlap.
//   (2)-(3) Layer the graph by distance to B0 and color layers in reverse
//       order, each a (deg+1)-list instance.
//   (4) Color B0 nodes independently with the distributed Brooks' theorem
//       (Theorem 5), recoloring inside radius < R/2.
//
// The ND baseline (baseline.cpp) runs the same pipeline with its own layer
// step, so both go through run_layered_brooks.
#include <string>

#include "brooks/distributed_brooks.h"
#include "core/internal.h"
#include "mis/ruling_set.h"
#include "util/check.h"

namespace deltacol::internal {

void run_layered_brooks(ComponentContext& ctx, Coloring& c,
                        std::string_view prefix,
                        const LayerStep& color_layers) {
  const Graph& g = ctx.g;
  const int n = g.num_vertices();
  const int delta = ctx.delta;
  const std::string tag(prefix);

  // Brooks search radius rho; B0 nodes at pairwise distance >= 2 rho + 2
  // make the recoloring balls disjoint (paper: R with 2 log_{D-1} n < R/2).
  const int rho = brooks_search_radius(n, delta);
  const int R = 2 * rho + 2;

  std::vector<int> all(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  const std::vector<int> base =
      ruling_set(g, all, R, RulingSetEngine::kDeterministic, nullptr,
                 ctx.ledger, tag + "/ruling-set", ctx.pool);
  DC_ENSURE(!base.empty(), "ruling set of a non-empty graph is empty");
  ctx.stats.base_layer_size += static_cast<int>(base.size());

  // Covering radius of the deterministic engine, in G hops.
  const int z =
      (R - 1) * ruling_set_cover_radius(n, RulingSetEngine::kDeterministic);
  const Layering layering = build_layers(g, base, z);
  ctx.ledger.charge(layering.num_layers, tag + "/layering");
  for (int v = 0; v < n; ++v) {
    DC_ENSURE(layering.layer[static_cast<std::size_t>(v)] != kNoLayer,
              "ruling set covering failed to reach a vertex");
  }
  ctx.stats.num_b_layers += layering.num_layers;

  color_layers(layering, tag + "/layer-coloring");

  // Color B0 by independent Brooks fixes. Balls of radius rho around
  // distinct B0 nodes are disjoint (B0 is a distance-R ruling set with
  // R = 2*rho + 2), so the fixes commute and all, in a real network, run in
  // the same 2*rho+1 rounds — and on this host they run concurrently, fanned
  // out over the pool, with the Lemma-27 emergency path deferred to a serial
  // pass (see schedule_disjoint_brooks_fixes; debug builds assert the ball
  // disjointness the fan-out relies on).
  for (int v : base) {
    DC_ENSURE(c[static_cast<std::size_t>(v)] == kUncolored,
              "base vertex was colored by a layer instance");
  }
  const auto fixes =
      schedule_disjoint_brooks_fixes(g, c, base, delta, rho, ctx.pool);
  ctx.stats.brooks_fixes += fixes.num_executed;
  const std::string base_phase = tag + "/base-layer";
  for (const auto& fix : fixes.results) {
    if (fix.used_component_recolor) {
      // Emergency path (should not happen; see brooks_fix): charge
      // sequentially and honestly, in base-index order.
      DC_ENSURE(!ctx.opt.strict, "strict mode: Brooks fix exceeded radius");
      ++ctx.stats.repairs;
      ctx.ledger.charge(2 * fix.radius_used + 1, base_phase);
    }
  }
  ctx.ledger.charge(2 * rho + 1, base_phase);
}

void run_deterministic(ComponentContext& ctx, Coloring& c) {
  run_layered_brooks(
      ctx, c, "det", [&](const Layering& layering, std::string_view phase) {
        color_layers_in_reverse(ctx.g, layering, ctx.delta, ctx.schedule,
                                ctx.schedule_colors, ctx.opt.list_engine,
                                &ctx.rng, c, ctx.ledger, phase, ctx.pool);
      });
}

}  // namespace deltacol::internal
