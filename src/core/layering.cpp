#include "core/layering.h"

#include <algorithm>

#include "coloring/list_coloring.h"
#include "graph/frontier_bfs.h"
#include "graph/ops.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

namespace {

// Materializes a Layering from the scratch's level slices. Members of each
// layer are sorted by id (the contract downstream phases and the golden
// round counts were built against).
Layering layering_from_scratch(const BfsScratch& scratch, int n) {
  Layering out;
  out.layer.assign(static_cast<std::size_t>(n), kNoLayer);
  out.num_layers = scratch.num_levels();
  out.members.resize(static_cast<std::size_t>(out.num_layers));
  for (int l = 0; l < out.num_layers; ++l) {
    const auto lv = scratch.level(l);
    auto& slot = out.members[static_cast<std::size_t>(l)];
    slot.assign(lv.begin(), lv.end());
    std::sort(slot.begin(), slot.end());
    for (int v : slot) out.layer[static_cast<std::size_t>(v)] = l;
  }
  return out;
}

}  // namespace

Layering build_layers(const Graph& g, const std::vector<int>& base,
                      int max_depth, ThreadPool* /*pool*/) {
  for (int s : base) {
    DC_REQUIRE(0 <= s && s < g.num_vertices(), "base vertex out of range");
  }
  BfsScratch scratch;
  scratch.run_multi(g, base, max_depth);
  return layering_from_scratch(scratch, g.num_vertices());
}

Layering build_layers_restricted(const Graph& g, const std::vector<int>& base,
                                 int max_depth,
                                 const std::vector<bool>& allowed) {
  DC_REQUIRE(allowed.size() == static_cast<std::size_t>(g.num_vertices()),
             "allowed mask size mismatch");
  for (int s : base) {
    DC_REQUIRE(0 <= s && s < g.num_vertices(), "base vertex out of range");
    DC_REQUIRE(allowed[static_cast<std::size_t>(s)],
               "base vertex excluded by the restriction mask");
  }
  BfsScratch scratch;
  scratch.run_multi_filtered(g, base, max_depth, [&](int v) {
    return allowed[static_cast<std::size_t>(v)];
  });
  return layering_from_scratch(scratch, g.num_vertices());
}

void color_vertex_set_as_list_instance(const Graph& g,
                                       const std::vector<int>& vertices,
                                       int delta, const Coloring& schedule,
                                       int schedule_colors, ListEngine engine,
                                       Rng* rng, Coloring& c,
                                       RoundLedger& ledger,
                                       std::string_view phase,
                                       ThreadPool* pool) {
  std::vector<int> todo;
  for (int v : vertices) {
    if (c[static_cast<std::size_t>(v)] == kUncolored) todo.push_back(v);
  }
  if (todo.empty()) return;
  const auto sub = induced_subgraph(g, todo);
  ListAssignment lists(static_cast<std::size_t>(sub.graph.num_vertices()));
  Coloring sub_schedule(static_cast<std::size_t>(sub.graph.num_vertices()));
  // Per-instance-vertex setup reads the frozen partial coloring and writes
  // i-private slots: a parallel-for.
  pooled_for(pool, 0, sub.graph.num_vertices(), [&](int i) {
    const int p = sub.to_parent[static_cast<std::size_t>(i)];
    lists[static_cast<std::size_t>(i)] = free_colors(g, c, p, delta);
    sub_schedule[static_cast<std::size_t>(i)] =
        schedule[static_cast<std::size_t>(p)];
  });
  DC_ENSURE(lists_have_deg_plus_one(sub.graph, lists),
            "layer instance is not (deg+1): some vertex lacks an uncolored "
            "lower-layer neighbor");
  Coloring sub_c(static_cast<std::size_t>(sub.graph.num_vertices()), kUncolored);
  switch (engine) {
    case ListEngine::kDeterministic:
      det_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, sub_c,
                        ledger, phase, pool);
      break;
    case ListEngine::kRandomized:
      DC_REQUIRE(rng != nullptr, "randomized engine needs an Rng");
      rand_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, *rng,
                         sub_c, ledger, phase, pool);
      break;
  }
  for (int i = 0; i < sub.graph.num_vertices(); ++i) {
    c[sub.to_parent[static_cast<std::size_t>(i)]] = sub_c[i];
  }
}

void color_layers_in_reverse(const Graph& g, const Layering& layering,
                             int delta, const Coloring& schedule,
                             int schedule_colors, ListEngine engine, Rng* rng,
                             Coloring& c, RoundLedger& ledger,
                             std::string_view phase, ThreadPool* pool) {
  // Layers are inherently sequential (layer i needs i+1 colored); the
  // parallelism lives inside each layer's instance.
  for (int i = layering.num_layers - 1; i >= 1; --i) {
    color_vertex_set_as_list_instance(
        g, layering.members[static_cast<std::size_t>(i)], delta, schedule,
        schedule_colors, engine, rng, c, ledger, phase, pool);
  }
}

}  // namespace deltacol
