#include "core/api.h"

#include <algorithm>
#include <numeric>

#include "coloring/linial.h"
#include "coloring/list_coloring.h"
#include "core/internal.h"
#include "graph/components.h"
#include "graph/ops.h"
#include "graph/structure.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kDeterministic: return "deterministic (Thm 4)";
    case Algorithm::kRandomizedLarge: return "randomized large-Delta (Thm 3)";
    case Algorithm::kRandomizedSmall: return "randomized small-Delta (Thm 1)";
    case Algorithm::kBaselineND: return "ND baseline (Thm 21 / PS95)";
    case Algorithm::kBaselineGreedyBrooks: return "greedy+Brooks baseline";
  }
  return "?";
}

namespace {

using internal::ComponentContext;

// Runs one attempt end to end; throws ContractViolation on failure (the
// caller retries randomized algorithms with fresh seeds).
DeltaColoringResult attempt(const Graph& g, Algorithm alg,
                            const DeltaColoringOptions& opt,
                            std::uint64_t seed, ThreadPool* pool) {
  const int n = g.num_vertices();
  const int delta = g.max_degree();
  DC_REQUIRE(n > 0, "empty graph");
  DC_REQUIRE(delta >= 3, "Delta-coloring here requires max degree >= 3 "
                         "(Delta = 2 needs Omega(n) rounds, see paper)");
  if (alg == Algorithm::kRandomizedLarge) {
    DC_REQUIRE(delta >= 4, "Theorem 3 requires Delta >= 4; use "
                           "kRandomizedSmall for Delta = 3");
  }

  DeltaColoringResult res;
  res.delta = delta;
  res.coloring.assign(static_cast<std::size_t>(n), kUncolored);
  // CONGEST(B) accounting mode (api.h): configure the top-level ledger
  // before any charge; per-component ledgers inherit below.
  res.ledger.set_congest_bits(opt.congest_bits);
  Rng rng(seed);

  // Symmetry-breaking schedule: a proper (Delta+1)-coloring computed once,
  // so every later class sweep costs Delta+1 rounds. opt.list_engine picks
  // how, for every algorithm, the randomized ones included: kDeterministic
  // reduces Linial's O(Delta^2) colors one class per round (O(Delta^2)
  // rounds, once); kRandomized trial-colors g on palette Delta+1 in
  // O(log n) rounds — this is where Theorem 3's O(log Delta) headstart over
  // deterministic substrates comes from.
  LinialResult lin;
  if (opt.list_engine == ListEngine::kRandomized) {
    const LinialResult raw = linial_coloring(g, res.ledger, pool);
    std::vector<int> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    lin.coloring.assign(static_cast<std::size_t>(n), kUncolored);
    color_vertex_set_as_list_instance(
        g, all, [delta](int) { return delta + 1; }, raw.coloring,
        raw.num_colors, ListEngine::kRandomized, &rng, lin.coloring,
        res.ledger, "schedule", pool);
    lin.num_colors = delta + 1;
  } else {
    lin = delta_plus_one_schedule(g, res.ledger, pool);
  }

  // Components run in parallel in a real network: charge the maximum
  // component cost on top of the shared Linial rounds. pooled_chunks makes
  // the wall-clock execution match — components run concurrently — while
  // every observable stays index-keyed: private RNG streams are pre-split
  // here in component order, every job writes only its own ledger / stats /
  // coloring slice, and the folds below run serially in component order.
  const auto comps = connected_components(g).vertex_sets();
  const int num_comps = static_cast<int>(comps.size());
  std::vector<Rng> comp_rngs;
  comp_rngs.reserve(comps.size());
  for (int ci = 0; ci < num_comps; ++ci) comp_rngs.push_back(rng.split());
  std::vector<RoundLedger> comp_ledgers(comps.size());
  for (auto& cl : comp_ledgers) cl.set_congest_bits(opt.congest_bits);
  std::vector<PhaseStats> comp_stats(comps.size());

  pooled_chunks(pool, num_comps, [&](int ci) {
    const auto& comp_vertices = comps[static_cast<std::size_t>(ci)];
    const auto sub = induced_subgraph(g, comp_vertices);
    const Graph& comp = sub.graph;
    DC_REQUIRE(!(is_clique(comp) && comp.num_vertices() == delta + 1),
               "a component is a (Delta+1)-clique: not Delta-colorable");

    Coloring local(static_cast<std::size_t>(comp.num_vertices()), kUncolored);
    Coloring local_schedule(static_cast<std::size_t>(comp.num_vertices()));
    for (int v = 0; v < comp.num_vertices(); ++v) {
      local_schedule[static_cast<std::size_t>(v)] =
          lin.coloring[static_cast<std::size_t>(
              sub.to_parent[static_cast<std::size_t>(v)])];
    }

    RoundLedger& ledger = comp_ledgers[static_cast<std::size_t>(ci)];
    Rng& comp_rng = comp_rngs[static_cast<std::size_t>(ci)];
    ComponentContext ctx{comp,   delta,    local_schedule, lin.num_colors,
                         opt,    comp_rng, ledger,
                         comp_stats[static_cast<std::size_t>(ci)], pool};

    // A component below the global max degree is a single (deg+1)-list
    // instance on palette Delta (every vertex has Delta >= deg+1 colors).
    // Cliques, cycles and paths always land here: K_{Delta+1} is rejected
    // above, and cycles and paths have degree <= 2 < 3 <= Delta.
    if (comp.max_degree() < delta) {
      std::vector<int> all(static_cast<std::size_t>(comp.num_vertices()));
      std::iota(all.begin(), all.end(), 0);
      color_vertex_set_as_list_instance(
          comp, all, [delta](int) { return delta; }, local_schedule,
          lin.num_colors, opt.list_engine, &comp_rng, local, ledger,
          "trivial-component", pool);
    } else {
      switch (alg) {
        case Algorithm::kDeterministic:
          internal::run_deterministic(ctx, local);
          break;
        case Algorithm::kRandomizedLarge:
          internal::run_randomized(ctx, local, /*small_variant=*/false);
          break;
        case Algorithm::kRandomizedSmall:
          internal::run_randomized(ctx, local, /*small_variant=*/true);
          break;
        case Algorithm::kBaselineND:
          internal::run_baseline_nd(ctx, local);
          break;
        case Algorithm::kBaselineGreedyBrooks:
          internal::run_baseline_greedy_brooks(ctx, local);
          break;
      }
      if (count_uncolored(local) > 0) {
        internal::repair_completion(ctx, local);
      }
    }

    validate_delta_coloring(comp, local, delta);
    // res.coloring slices are disjoint across components: race-free.
    for (int v = 0; v < comp.num_vertices(); ++v) {
      res.coloring[sub.to_parent[static_cast<std::size_t>(v)]] = local[v];
    }
  });

  // Serial folds in component order (see the comment above).
  for (const auto& stats : comp_stats) {
    internal::merge_component_stats(res.stats, stats);
  }
  charge_max_component(res.ledger, comp_ledgers);
  validate_delta_coloring(g, res.coloring, delta);
  return res;
}

}  // namespace

namespace internal {

void merge_component_stats(PhaseStats& into, const PhaseStats& from) {
  into.num_dccs_selected += from.num_dccs_selected;
  into.base_layer_size += from.base_layer_size;
  into.num_b_layers += from.num_b_layers;
  into.num_selected += from.num_selected;
  into.num_tnodes += from.num_tnodes;
  into.num_marked += from.num_marked;
  into.num_c_layers += from.num_c_layers;
  into.h_vertices += from.h_vertices;
  into.happy_vertices += from.happy_vertices;
  into.leftover_vertices += from.leftover_vertices;
  into.leftover_components += from.leftover_components;
  into.max_leftover_component =
      std::max(into.max_leftover_component, from.max_leftover_component);
  into.anchors_empty_fallbacks += from.anchors_empty_fallbacks;
  into.brooks_fixes += from.brooks_fixes;
  into.repairs += from.repairs;
  // retries_used is owned by the delta_color retry loop, not per-component.
}

}  // namespace internal

DeltaColoringResult delta_color(const Graph& g, Algorithm alg,
                                const DeltaColoringOptions& opt) {
  const bool randomized = alg != Algorithm::kDeterministic;
  // Checked once, before the retry loop: a bad option fails every attempt.
  if (alg == Algorithm::kRandomizedLarge ||
      alg == Algorithm::kRandomizedSmall) {
    DC_REQUIRE(opt.dcc_radius >= 1, "dcc_radius must be at least 1, got " +
                                        std::to_string(opt.dcc_radius));
    DC_REQUIRE(opt.small_variant_radius_cap >= 2,
               "small_variant_radius_cap must be at least 2, got " +
                   std::to_string(opt.small_variant_radius_cap));
    DC_REQUIRE(opt.backoff < 0 || opt.backoff >= 3,
               "backoff must be negative (auto) or at least 3, got " +
                   std::to_string(opt.backoff));
    // Negative means auto; NaN fails the comparison.
    DC_REQUIRE(opt.selection_prob <= 1,
               "selection_prob must be negative (auto) or in [0, 1], got " +
                   std::to_string(opt.selection_prob));
  }
  const int tries = randomized && !opt.strict ? std::max(1, opt.max_retries + 1) : 1;
  // One pool for the whole call (retries included); num_threads <= 1 spawns
  // no workers and the runtime takes its inline serial paths throughout.
  ThreadPool pool(ThreadPool::resolve_num_threads(opt.num_threads));
  // Schedule perturbation (api.h): chunk-count jitter + stall injection, a
  // pure function of (salt, shape) — results are unchanged for every salt.
  pool.set_perturb_salt(opt.perturb_salt);
  ThreadPool* pool_ptr = pool.num_threads() > 1 ? &pool : nullptr;
  std::uint64_t seed = opt.seed;
  for (int attempt_idx = 0;; ++attempt_idx) {
    try {
      DeltaColoringResult res = attempt(g, alg, opt, seed, pool_ptr);
      res.stats.retries_used = attempt_idx;
      return res;
    } catch (const ContractViolation&) {
      if (attempt_idx + 1 >= tries) throw;
      seed = seed * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL;
    }
  }
}

}  // namespace deltacol
