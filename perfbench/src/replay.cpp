#include "replay.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "brooks/distributed_brooks.h"
#include "coloring/linial.h"
#include "core/layering.h"
#include "dcc/dcc.h"
#include "graph/components.h"
#include "graph/ops.h"
#include "graph/structure.h"
#include "mis/mis.h"
#include "mis/ruling_set.h"
#include "runtime/thread_pool.h"

namespace perfbench {

using namespace deltacol;

namespace {

// The seed delta_color's retry loop used for its final attempt.
std::uint64_t attempt_seed(std::uint64_t seed, int retries) {
  for (int i = 0; i < retries; ++i) {
    seed = seed * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL;
  }
  return seed;
}

// Phase (1) radius of the randomized pipelines (core/rand_delta.cpp).
int dcc_radius(Algorithm alg, const DeltaColoringOptions& opt, int n) {
  if (alg == Algorithm::kRandomizedLarge) return std::max(1, opt.dcc_radius);
  const double loglog =
      std::log2(std::max(2.0, std::log2(static_cast<double>(std::max(4, n)))));
  return std::clamp(static_cast<int>(std::ceil(loglog)), 2,
                    opt.small_variant_radius_cap);
}

}  // namespace

ReplayOutcome replay(const Graph& g, Algorithm alg,
                     const DeltaColoringOptions& opt,
                     const DeltaColoringResult& res, Tracer& tracer,
                     int parent, int call) {
  ReplayOutcome out;
  const bool det = alg == Algorithm::kDeterministic;
  if (!det && alg != Algorithm::kRandomizedLarge &&
      alg != Algorithm::kRandomizedSmall) {
    out.mismatch = "no replay for this algorithm";
    return out;
  }
  ThreadPool pool(ThreadPool::resolve_num_threads(opt.num_threads));
  ThreadPool* pp = pool.num_threads() > 1 ? &pool : nullptr;
  const int threads = pool.num_threads();
  const int delta = g.max_degree();
  const int root = tracer.open("replay", parent, call, threads);
  const auto scope = [&](const char* name) {
    return Tracer::Scope(tracer, name, root, call, threads);
  };

  Rng rng(attempt_seed(opt.seed, res.stats.retries_used));
  RoundLedger ledger;
  LinialResult lin;
  {
    const auto s = scope("coloring.schedule");
    lin = delta_plus_one_schedule(g, ledger, pp);
  }
  out.schedule_rounds = static_cast<int>(ledger.total());
  std::vector<std::vector<int>> comps;
  {
    const auto s = scope("graph.components");
    comps = connected_components(g).vertex_sets();
  }
  std::vector<Rng> comp_rngs;
  for (std::size_t i = 0; i < comps.size(); ++i) comp_rngs.push_back(rng.split());

  Coloring coloring(static_cast<std::size_t>(g.num_vertices()), kUncolored);
  int base_size = 0;
  for (std::size_t ci = 0; ci < comps.size() && out.mismatch.empty(); ++ci) {
    Subgraph sub;
    {
      const auto s = scope("graph.induced_copy");
      sub = induced_subgraph(g, comps[ci]);
    }
    const Graph& comp = sub.graph;
    const int cn = comp.num_vertices();
    if (comp.max_degree() < delta || is_clique(comp) || is_cycle(comp) ||
        is_path(comp)) {
      out.mismatch = "component takes the list-instance path, not replayed";
      break;
    }
    Coloring schedule(static_cast<std::size_t>(cn));
    for (int v = 0; v < cn; ++v) {
      schedule[static_cast<std::size_t>(v)] =
          lin.coloring[static_cast<std::size_t>(sub.to_parent[static_cast<std::size_t>(v)])];
    }
    Rng& comp_rng = comp_rngs[ci];

    if (det) {
      const int rho = brooks_search_radius(cn, delta);
      const int alpha = 2 * rho + 2;
      std::vector<int> all(static_cast<std::size_t>(cn));
      std::iota(all.begin(), all.end(), 0);
      std::vector<int> base;
      {
        const auto s = scope("mis.ruling_set");
        base = ruling_set(comp, all, alpha, RulingSetEngine::kDeterministic,
                          nullptr, ledger, "det/ruling-set", pp);
      }
      out.ruling_set_picks += static_cast<int>(base.size());
      const int z = (alpha - 1) *
                    ruling_set_cover_radius(cn, RulingSetEngine::kDeterministic);
      Layering layering;
      {
        const auto s = scope("core.build_layers");
        layering = build_layers(comp, base, z, pp);
      }
      Coloring local(static_cast<std::size_t>(cn), kUncolored);
      {
        const auto s = scope("core.layer_coloring");
        color_layers_in_reverse(comp, layering, delta, schedule, lin.num_colors,
                                opt.list_engine, &comp_rng, local, ledger,
                                "det/layer-coloring", pp);
      }
      {
        const auto s = scope("brooks.fixes");
        out.brooks_fixes +=
            schedule_disjoint_brooks_fixes(comp, local, base, delta, rho, pp)
                .num_executed;
      }
      if (count_uncolored(local) > 0) {
        out.mismatch = "call needed the repair path, not replayed";
        break;
      }
      {
        const auto s = scope("coloring.validate");
        validate_delta_coloring(comp, local, delta);
      }
      for (int v = 0; v < cn; ++v) {
        coloring[static_cast<std::size_t>(sub.to_parent[static_cast<std::size_t>(v)])] =
            local[static_cast<std::size_t>(v)];
      }
    } else {
      const int r = dcc_radius(alg, opt, cn);
      DccDetection found;
      {
        const auto s = scope("dcc.detect");
        found = detect_dccs(comp, r, ledger, "rand/1-dcc-detect", pp);
      }
      out.dccs_found += static_cast<int>(found.dccs.size());
      if (found.dccs.empty()) continue;
      Graph gdcc;
      {
        const auto s = scope("dcc.gdcc_build");
        gdcc = build_dcc_virtual_graph(comp, found.dccs);
      }
      std::vector<bool> in_m;
      {
        const auto s = scope("mis.gdcc_luby");
        in_m = luby_mis(gdcc, comp_rng, ledger, "rand/2-gdcc-ruling",
                        2 * found.max_dcc_radius + 1, pp);
      }
      std::vector<int> base;
      for (std::size_t i = 0; i < found.dccs.size(); ++i) {
        if (in_m[i]) base.insert(base.end(), found.dccs[i].begin(), found.dccs[i].end());
      }
      base_size += static_cast<int>(base.size());
      if (base.empty()) continue;
      const auto s = scope("core.b_layers");
      build_layers(comp, base, r + 2 * found.max_dcc_radius + 1, pp);
    }
  }

  if (out.mismatch.empty()) {
    if (det) {
      {
        const auto s = scope("coloring.validate");
        validate_delta_coloring(g, coloring, delta);
      }
      if (coloring != res.coloring) out.mismatch = "det replay coloring differs";
    } else if (out.dccs_found != res.stats.num_dccs_selected ||
               base_size != res.stats.base_layer_size) {
      out.mismatch = "rand replay: dccs " + std::to_string(out.dccs_found) +
                     " vs " + std::to_string(res.stats.num_dccs_selected) +
                     ", base " + std::to_string(base_size) + " vs " +
                     std::to_string(res.stats.base_layer_size);
    }
  }
  tracer.close(root);
  for (const Span& s : tracer.spans()) {
    if (s.parent == root) out.children_s += s.seconds();
  }
  out.consistent = out.mismatch.empty();
  return out;
}

}  // namespace perfbench
