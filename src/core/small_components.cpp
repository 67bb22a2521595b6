// Section 4.3: coloring the components left over after the shattering
// process, plus the universal repair path.
//
// For a leftover component C: a node is *free* if its global degree is
// < Delta or it has an uncolored neighbor outside C (paper: "not colored
// with the first color" — outside C the only colored vertices at this point
// are the marked ones, which carry color 0). Free nodes and DCCs of radius
// <= R (R = 2 log_{Delta-2} |C| + 1) form the virtual graph CDCC; a ruling
// set of CDCC anchors D-layers, colored in reverse; the anchors themselves
// are independent, so free nodes take a free color and DCC anchors are
// colored by Theorem 8 (constructively, brute force as last resort).
// Lemmas 26/27 guarantee the anchors are non-empty and the layers exhaust C;
// both are checked at runtime.
#include <algorithm>
#include <cmath>

#include "brooks/distributed_brooks.h"
#include "coloring/degree_choosable.h"
#include "coloring/greedy.h"
#include "core/internal.h"
#include "dcc/dcc.h"
#include "graph/frontier_bfs.h"
#include "graph/ops.h"
#include "graph/traversal.h"
#include "mis/mis.h"
#include "util/check.h"

namespace deltacol::internal {

void repair_completion(ComponentContext& ctx, Coloring& c) {
  DC_REQUIRE(!ctx.opt.strict, "strict mode: repair_completion invoked");
  const Graph& g = ctx.g;
  const int rho = brooks_search_radius(g.num_vertices(), ctx.delta);
  BfsScratch fix_scratch;  // one visitation state for every fix's queries
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (c[static_cast<std::size_t>(v)] != kUncolored) continue;
    if (const auto x = first_free_color(g, c, v, ctx.delta)) {
      c[static_cast<std::size_t>(v)] = *x;
      ctx.ledger.charge(1, "repair");
    } else {
      const auto fix = brooks_fix(g, c, v, ctx.delta, rho, &fix_scratch);
      ++ctx.stats.brooks_fixes;
      ctx.ledger.charge(2 * std::max(1, fix.radius_used) + 1, "repair");
    }
    ++ctx.stats.repairs;
  }
}

bool color_small_component(ComponentContext& ctx, Coloring& c,
                           const std::vector<int>& component) {
  const Graph& g = ctx.g;
  const int delta = ctx.delta;
  if (component.empty()) return true;
  const auto sub = induced_subgraph(g, component);
  const Graph& comp = sub.graph;
  const int nc = comp.num_vertices();

  // R = 2 log_{Delta-2} N + 1; for Delta = 3 the expansion base of Lemma 14
  // is 4^{1/6} per hop, hence the adjusted base.
  const double base_exp =
      delta >= 4 ? static_cast<double>(delta - 2) : std::pow(4.0, 1.0 / 6.0);
  const int R = std::min(
      nc, 2 * static_cast<int>(std::ceil(
               std::log(static_cast<double>(std::max(2, nc))) /
               std::log(base_exp))) +
              1);

  // Free nodes (component-local ids).
  std::vector<int> free_nodes;
  for (int v = 0; v < nc; ++v) {
    const int pv = sub.to_parent[static_cast<std::size_t>(v)];
    bool is_free = g.degree(pv) < delta;
    if (!is_free) {
      for (int u : g.neighbors(pv)) {
        const bool outside = sub.local_id(u) == -1;
        if (outside && c[static_cast<std::size_t>(u)] == kUncolored) {
          is_free = true;
          break;
        }
      }
    }
    if (is_free) free_nodes.push_back(v);
  }

  // DCCs of radius <= R inside the component.
  RoundLedger det_ledger;
  det_ledger.set_congest_bits(ctx.ledger.congest_bits());
  const DccDetection det =
      detect_dccs(comp, R, det_ledger, "small/dcc-detect", ctx.pool);
  ctx.ledger.merge(det_ledger);

  if (free_nodes.empty() && det.dccs.empty()) {
    // Lemma 27 says this cannot happen for genuinely leftover components;
    // reachable only under non-paper parameter choices. The repair may
    // color outside this component, so it is deferred to the caller, after
    // the Phase-(6) fan-out barrier (see internal.h).
    ++ctx.stats.anchors_empty_fallbacks;
    DC_ENSURE(!ctx.opt.strict,
              "strict mode: leftover component has no free node and no DCC "
              "(Lemma 27 violated — check parameters)");
    return false;
  }

  // CDCC is the GDCC construction over singleton free nodes plus DCCs; its
  // ruling set (paper: (2, gamma)) is a Luby MIS, covering radius 1 in CDCC
  // hops, run through the objects' members.
  std::vector<std::vector<int>> objects;  // component-local vertex sets
  for (int f : free_nodes) objects.push_back({f});
  objects.insert(objects.end(), det.dccs.begin(), det.dccs.end());
  const int per_step = 2 * std::max(1, det.max_dcc_radius) + 1;
  const std::vector<bool> in_m =
      luby_mis_over_sets(comp, objects, ctx.rng, ctx.ledger,
                         "small/cdcc-ruling", per_step, ctx.pool);

  std::vector<int> anchors;  // component-local ids, deduplicated
  std::vector<char> anchor_object(objects.size(), 0);
  {
    std::vector<bool> seen(static_cast<std::size_t>(nc), false);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      if (!in_m[i]) continue;
      anchor_object[i] = 1;
      for (int v : objects[i]) {
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          anchors.push_back(v);
        }
      }
    }
  }
  DC_ENSURE(!anchors.empty(), "CDCC ruling set is empty");

  // D-layers by distance to the anchors; a connected component is always
  // exhausted (Lemma 26 bounds the layer count, which we record implicitly
  // through the charges below).
  const Layering d_layers = build_layers(comp, anchors, -1);
  ctx.ledger.charge(d_layers.num_layers, "small/d-layers");
  for (int v = 0; v < nc; ++v) {
    DC_ENSURE(d_layers.layer[static_cast<std::size_t>(v)] != kNoLayer,
              "D-layers failed to exhaust a connected component");
  }

  // Color D_(max)..D_1 in reverse as (deg+1)-list instances on g.
  for (int i = d_layers.num_layers - 1; i >= 1; --i) {
    std::vector<int> members_parent;
    for (int v : d_layers.members[static_cast<std::size_t>(i)]) {
      members_parent.push_back(sub.to_parent[static_cast<std::size_t>(v)]);
    }
    color_vertex_set_as_list_instance(
        g, members_parent, [delta](int) { return delta; }, ctx.schedule,
        ctx.schedule_colors, ctx.opt.list_engine, &ctx.rng, c, ctx.ledger,
        "small/d-coloring", ctx.pool);
  }

  // D0: the ruling-set objects are pairwise non-adjacent, color each
  // independently — free nodes take a free color; DCCs via Theorem 8.
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (!anchor_object[i]) continue;
    const auto& obj = objects[i];
    if (obj.size() == 1 &&
        static_cast<int>(i) < static_cast<int>(free_nodes.size())) {
      const int pv = sub.to_parent[static_cast<std::size_t>(obj.front())];
      if (c[static_cast<std::size_t>(pv)] != kUncolored) continue;
      const auto x = first_free_color(g, c, pv, delta);
      DC_ENSURE(x.has_value(), "free node without a free color");
      c[static_cast<std::size_t>(pv)] = *x;
    } else {
      std::vector<int> obj_parent;
      bool already = false;
      for (int v : obj) {
        const int pv = sub.to_parent[static_cast<std::size_t>(v)];
        if (c[static_cast<std::size_t>(pv)] != kUncolored) already = true;
        obj_parent.push_back(pv);
      }
      DC_ENSURE(!already, "anchor DCC partially colored before D0");
      const bool colored = color_from_free_colors(g, obj_parent, delta, c);
      DC_ENSURE(colored, "anchor DCC not degree-choosable");
    }
  }
  ctx.ledger.charge(2 * std::max(1, det.max_dcc_radius) + 1, "small/d0");
  return true;
}

}  // namespace deltacol::internal
