// Theorems 1 and 3: the randomized Delta-coloring algorithms (paper
// Section 4.1, Phases (1)-(9)). The two variants share this code; they
// differ in the DCC radius r (constant for large Delta, Theta(log log n)
// for the small-Delta variant) and the backoff distance b.
//
// Phase map (paper numbering preserved):
//   I   (1)-(3): remove degree-choosable components with small radius —
//       detect DCCs in r-balls, ruling set on the virtual graph GDCC, base
//       layer B0, layers B1..Bs by distance, all removed from the graph.
//   II  (4)-(6): shattering — the marking process creates T-nodes; happy
//       nodes (uncolored path to a T-node or near the boundary) leave in
//       layers C0..C2r; leftover components are colored by Section 4.3.
//   III (7): color layers C2r..C0 in reverse ((deg+1)-list instances).
//   IV  (8)-(9): color layers Bs..B1 in reverse, then the independent
//       degree-choosable components of B0 directly (Theorem 8).
#include <algorithm>
#include <cmath>

#include "core/internal.h"
#include "coloring/degree_choosable.h"
#include "dcc/dcc.h"
#include "graph/components.h"
#include "graph/frontier_bfs.h"
#include "graph/ops.h"
#include "graph/traversal.h"
#include "mis/mis.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol::internal {

namespace {

struct MarkingOutcome {
  std::vector<int> tnodes;   // surviving selected nodes that created marks
  std::vector<int> marked;   // vertices colored with color 0
};

// Paper Phase (4): select w.p. p; back off if another selected node is
// within distance b in H; survivors color two non-adjacent H-neighbors with
// the first color.
MarkingOutcome marking_process(const Graph& g, const std::vector<bool>& in_h,
                               Coloring& c, double p, int b, Rng& rng,
                               ThreadPool* pool) {
  const int n = g.num_vertices();
  std::vector<int> selected0;
  for (int v = 0; v < n; ++v) {
    if (in_h[static_cast<std::size_t>(v)] && rng.next_bool(p)) {
      selected0.push_back(v);
    }
  }
  std::vector<bool> is_selected0(static_cast<std::size_t>(n), false);
  for (int v : selected0) is_selected0[static_cast<std::size_t>(v)] = true;

  // Back-off test: a pure read of the frozen selection (the b-radius ball
  // scans are the expensive part), so it fans out over the pool; the
  // Rng-consuming mark placement below stays serial in selection order, so
  // the stream is identical for every thread count. Each chunk reuses one
  // epoch-stamped scratch across its balls and the H-membership predicate
  // inlines (no per-edge indirect call).
  const int num_selected = static_cast<int>(selected0.size());
  std::vector<char> lonely_flags(selected0.size(), 1);
  // Chunk cap = one per executor: each chunk allocates O(n) scratch, so
  // more chunks than executors would only multiply that cost.
  pooled_ranges(
      pool, 0, num_selected,
      [&](int /*chunk*/, int lo, int hi) {
        BfsScratch scratch;
        for (int i = lo; i < hi; ++i) {
          const int v = selected0[static_cast<std::size_t>(i)];
          scratch.run_filtered(g, v, b, [&](int u) {
            return in_h[static_cast<std::size_t>(u)];
          });
          for (int u : scratch.order()) {
            if (u != v && is_selected0[static_cast<std::size_t>(u)]) {
              lonely_flags[static_cast<std::size_t>(i)] = 0;
              break;
            }
          }
        }
      },
      pool != nullptr ? pool->num_threads() : 1);
  MarkingOutcome out;
  for (int i = 0; i < num_selected; ++i) {
    const int v = selected0[static_cast<std::size_t>(i)];
    // Back off if another selected node lies within distance b in H.
    if (!lonely_flags[static_cast<std::size_t>(i)]) continue;
    // Pick two non-adjacent H-neighbors at random.
    std::vector<int> nbrs;
    for (int u : g.neighbors(v)) {
      if (in_h[static_cast<std::size_t>(u)]) nbrs.push_back(u);
    }
    rng.shuffle(nbrs);
    int u1 = -1, u2 = -1;
    for (std::size_t i = 0; i < nbrs.size() && u1 < 0; ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        if (!g.has_edge(nbrs[i], nbrs[j])) {
          u1 = nbrs[i];
          u2 = nbrs[j];
          break;
        }
      }
    }
    if (u1 < 0) continue;  // H-neighborhood is a clique: cannot host a T-node
    c[static_cast<std::size_t>(u1)] = 0;
    c[static_cast<std::size_t>(u2)] = 0;
    out.tnodes.push_back(v);
    out.marked.push_back(u1);
    out.marked.push_back(u2);
  }
  return out;
}

}  // namespace

void run_randomized(ComponentContext& ctx, Coloring& c, bool small_variant) {
  const Graph& g = ctx.g;
  const int n = g.num_vertices();
  const int delta = ctx.delta;

  // ---- Parameters -------------------------------------------------------
  // delta_color has checked dcc_radius >= 1, small_variant_radius_cap >= 2,
  // an explicit backoff >= 3 and an explicit selection_prob in [0, 1].
  int r = ctx.opt.dcc_radius;
  if (small_variant) {
    const double loglog =
        std::log2(std::max(2.0, std::log2(static_cast<double>(std::max(4, n)))));
    r = std::clamp(static_cast<int>(std::ceil(loglog)), 2,
                   ctx.opt.small_variant_radius_cap);
  }
  int b = ctx.opt.backoff;
  if (b < 0) b = ctx.opt.use_paper_constants ? (small_variant ? 12 : 6) : 3;
  double p = ctx.opt.selection_prob;
  if (p < 0) {
    p = std::pow(static_cast<double>(delta),
                 -static_cast<double>(ctx.opt.use_paper_constants ? 6 : b));
  }

  // ---- Phase (1): DCC detection in r-balls ------------------------------
  const DccDetection det =
      detect_dccs(g, r, ctx.ledger, "rand/1-dcc-detect", ctx.pool);
  ctx.stats.num_dccs_selected += static_cast<int>(det.dccs.size());

  // ---- Phase (2): ruling set on GDCC, base layer B0 ----------------------
  std::vector<int> base;
  std::vector<char> dcc_in_m;
  if (!det.dccs.empty()) {
    // Luby on GDCC, run through the DCCs' members. One GDCC round costs a
    // gather across two DCC diameters plus the connecting edge.
    const int per_step = 2 * det.max_dcc_radius + 1;
    const std::vector<bool> in_m =
        luby_mis_over_sets(g, det.dccs, ctx.rng, ctx.ledger,
                           "rand/2-gdcc-ruling", per_step, ctx.pool);
    dcc_in_m.assign(det.dccs.size(), 0);
    for (std::size_t i = 0; i < det.dccs.size(); ++i) {
      if (in_m[i]) {
        dcc_in_m[i] = 1;
        for (int v : det.dccs[i]) base.push_back(v);
      }
    }
  }
  ctx.stats.base_layer_size += static_cast<int>(base.size());

  // ---- Phase (3): layers B0..Bs -----------------------------------------
  const int s = r + 2 * det.max_dcc_radius + 1;
  Layering b_layers;
  std::vector<bool> in_h(static_cast<std::size_t>(n), true);
  if (!base.empty()) {
    b_layers = build_layers(g, base, s);
    ctx.ledger.charge(s, "rand/3-b-layers");
    for (int v = 0; v < n; ++v) {
      if (b_layers.layer[static_cast<std::size_t>(v)] != kNoLayer) {
        in_h[static_cast<std::size_t>(v)] = false;
      }
      // Invariant: every vertex whose r-ball contains a DCC is removed, so
      // the remainder H has no DCC of radius <= r (DESIGN.md §4).
      DC_ENSURE(!det.has_dcc[static_cast<std::size_t>(v)] ||
                    b_layers.layer[static_cast<std::size_t>(v)] != kNoLayer,
                "DCC-adjacent vertex escaped the B-layers");
    }
    ctx.stats.num_b_layers += b_layers.num_layers;
  } else {
    for (int v = 0; v < n; ++v) {
      DC_ENSURE(!det.has_dcc[static_cast<std::size_t>(v)],
                "DCC detected but no DCC selected");
    }
  }

  for (int v = 0; v < n; ++v) {
    if (in_h[static_cast<std::size_t>(v)]) ++ctx.stats.h_vertices;
  }

  // ---- Phase (4): marking process / T-node creation ----------------------
  const MarkingOutcome marking =
      marking_process(g, in_h, c, p, b, ctx.rng, ctx.pool);
  ctx.stats.num_selected += static_cast<int>(marking.tnodes.size());
  ctx.ledger.charge(b + 2, "rand/4-marking");

  // ---- Phase (5): layers C0..C2r ----------------------------------------
  // Boundary of H: degree < delta within H. A pure v-private sweep.
  std::vector<int> deg_h(static_cast<std::size_t>(n), 0);
  pooled_for(ctx.pool, 0, n, [&](int v) {
    if (!in_h[static_cast<std::size_t>(v)]) return;
    for (int u : g.neighbors(v)) {
      if (in_h[static_cast<std::size_t>(u)]) {
        ++deg_h[static_cast<std::size_t>(v)];
      }
    }
  });
  std::vector<int> boundary;
  for (int v = 0; v < n; ++v) {
    if (in_h[static_cast<std::size_t>(v)] &&
        deg_h[static_cast<std::size_t>(v)] < delta) {
      boundary.push_back(v);
    }
  }
  // Colored (marked) nodes within distance r of the boundary uncolor
  // themselves (distances measured in H): a multi-source BFS inside H.
  if (!boundary.empty()) {
    BfsScratch scratch;
    scratch.run_multi_filtered(g, boundary, r, [&](int w) {
      return in_h[static_cast<std::size_t>(w)];
    });
    for (int m : marking.marked) {
      if (scratch.visited(m)) c[static_cast<std::size_t>(m)] = kUncolored;
    }
  }
  // Recompute surviving T-nodes: still two neighbors colored with color 0.
  std::vector<int> anchors = boundary;
  int surviving_t = 0;
  for (int v : marking.tnodes) {
    int zero_nbrs = 0;
    for (int u : g.neighbors(v)) {
      if (in_h[static_cast<std::size_t>(u)] &&
          c[static_cast<std::size_t>(u)] == 0) {
        ++zero_nbrs;
      }
    }
    if (zero_nbrs >= 2 && deg_h[static_cast<std::size_t>(v)] >= delta) {
      anchors.push_back(v);
      ++surviving_t;
    }
  }
  ctx.stats.num_tnodes += surviving_t;
  int marked_kept = 0;
  for (int m : marking.marked) {
    if (c[static_cast<std::size_t>(m)] == 0) ++marked_kept;
  }
  ctx.stats.num_marked += marked_kept;

  std::vector<bool> uncolored_h(static_cast<std::size_t>(n), false);
  for (int v = 0; v < n; ++v) {
    uncolored_h[static_cast<std::size_t>(v)] =
        in_h[static_cast<std::size_t>(v)] &&
        c[static_cast<std::size_t>(v)] == kUncolored;
  }
  Layering c_layers;
  std::vector<bool> in_c(static_cast<std::size_t>(n), false);
  if (!anchors.empty()) {
    c_layers = build_layers_restricted(g, anchors, 2 * r, uncolored_h);
    for (int v = 0; v < n; ++v) {
      if (c_layers.layer[static_cast<std::size_t>(v)] != kNoLayer) {
        in_c[static_cast<std::size_t>(v)] = true;
        ++ctx.stats.happy_vertices;
      }
    }
    ctx.stats.num_c_layers += c_layers.num_layers;
  }
  ctx.ledger.charge(3 * r + 2, "rand/5-c-layers");

  // ---- Phase (6): leftover components (Section 4.3) -----------------------
  std::vector<int> leftover;
  for (int v = 0; v < n; ++v) {
    if (uncolored_h[static_cast<std::size_t>(v)] &&
        !in_c[static_cast<std::size_t>(v)]) {
      leftover.push_back(v);
    }
  }
  ctx.stats.leftover_vertices += static_cast<int>(leftover.size());
  if (!leftover.empty()) {
    const auto lsub = induced_subgraph(g, leftover);
    const auto comps = connected_components(lsub.graph).vertex_sets();
    const int num_comps = static_cast<int>(comps.size());
    ctx.stats.leftover_components += num_comps;
    // The leftover instances are disjoint and mutually non-adjacent, so they
    // run concurrently on the pool under the usual determinism recipe
    // (DESIGN.md §6): RNG streams pre-split here in index order, ledgers and
    // stats index-private, each job writing only its component's coloring
    // slice; the LOCAL cost is the max child total, exactly as the serial
    // loop charged it.
    std::vector<std::vector<int>> comp_parents(
        static_cast<std::size_t>(num_comps));
    std::vector<Rng> comp_rngs;
    comp_rngs.reserve(comps.size());
    std::vector<RoundLedger> comp_ledgers(static_cast<std::size_t>(num_comps));
    for (int i = 0; i < num_comps; ++i) {
      const auto& comp = comps[static_cast<std::size_t>(i)];
      ctx.stats.max_leftover_component = std::max(
          ctx.stats.max_leftover_component, static_cast<int>(comp.size()));
      auto& parent_ids = comp_parents[static_cast<std::size_t>(i)];
      parent_ids.reserve(comp.size());
      for (int x : comp) {
        parent_ids.push_back(lsub.to_parent[static_cast<std::size_t>(x)]);
      }
      comp_rngs.push_back(ctx.rng.split());
      comp_ledgers[static_cast<std::size_t>(i)].set_congest_bits(
          ctx.ledger.congest_bits());
    }
    std::vector<PhaseStats> comp_stats(static_cast<std::size_t>(num_comps));
    std::vector<char> needs_repair(static_cast<std::size_t>(num_comps), 0);
    pooled_chunks(ctx.pool, num_comps, [&](int i) {
      const auto at = static_cast<std::size_t>(i);
      ComponentContext child_ctx{ctx.g,
                                 ctx.delta,
                                 ctx.schedule,
                                 ctx.schedule_colors,
                                 ctx.opt,
                                 comp_rngs[at],
                                 comp_ledgers[at],
                                 comp_stats[at],
                                 ctx.pool};
      if (!color_small_component(child_ctx, c, comp_parents[at])) {
        needs_repair[at] = 1;
      }
    });
    // The largest child total, one network-time figure: the children's
    // phase breakdowns are not merged.
    std::int64_t max_rounds = 0;
    for (const auto& cl : comp_ledgers) {
      max_rounds = std::max(max_rounds, cl.total());
    }
    for (const auto& cs : comp_stats) merge_component_stats(ctx.stats, cs);
    ctx.ledger.charge(max_rounds, "rand/6-small-components");
    // Deferred Lemma-27 fallback (see internal.h): the repair may color
    // outside its component, so it runs serially after the barrier. One
    // call colors every still-uncolored vertex, covering all flagged
    // components at once.
    for (char flagged : needs_repair) {
      if (flagged != 0) {
        repair_completion(ctx, c);
        break;
      }
    }
  }

  // ---- Phase (7): color layers C2r..C0 ------------------------------------
  if (c_layers.num_layers > 0) {
    color_layers_in_reverse(g, c_layers, delta, ctx.schedule,
                            ctx.schedule_colors, ctx.opt.list_engine, &ctx.rng,
                            c, ctx.ledger, "rand/7-c-coloring", ctx.pool);
    color_vertex_set_as_list_instance(
        g, c_layers.members.front(), [delta](int) { return delta; },
        ctx.schedule, ctx.schedule_colors, ctx.opt.list_engine, &ctx.rng, c,
        ctx.ledger, "rand/7-c-coloring", ctx.pool);
  }

  // ---- Phase (8): color layers Bs..B1 -------------------------------------
  if (b_layers.num_layers > 0) {
    color_layers_in_reverse(g, b_layers, delta, ctx.schedule,
                            ctx.schedule_colors, ctx.opt.list_engine, &ctx.rng,
                            c, ctx.ledger, "rand/8-b-coloring", ctx.pool);
  }

  // ---- Phase (9): color the base layer B0 (independent DCCs) -------------
  if (!base.empty()) {
    for (std::size_t i = 0; i < det.dccs.size(); ++i) {
      if (!dcc_in_m[i]) continue;
      for (int pv : det.dccs[i]) {
        DC_ENSURE(c[static_cast<std::size_t>(pv)] == kUncolored,
                  "B0 vertex colored before Phase (9)");
      }
      const bool colored = color_from_free_colors(g, det.dccs[i], delta, c);
      DC_ENSURE(colored,
                "selected DCC was not degree-choosable (Theorem 8 violated?)");
    }
    ctx.ledger.charge(2 * det.max_dcc_radius + 2, "rand/9-b0-coloring");
  }
}

}  // namespace deltacol::internal
