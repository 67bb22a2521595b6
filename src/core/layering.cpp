#include "core/layering.h"

#include <algorithm>

#include "graph/frontier_bfs.h"
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

void color_layers_in_reverse(const Graph& g, const Layering& layering,
                             int delta, const Coloring& schedule,
                             int schedule_colors, ListEngine engine, Rng* rng,
                             Coloring& c, RoundLedger& ledger,
                             std::string_view phase, ThreadPool* pool) {
  // Layers are inherently sequential (layer i needs i+1 colored); the
  // parallelism lives inside each layer's instance.
  const auto palette = [delta](int) { return delta; };
  for (int i = layering.num_layers - 1; i >= 1; --i) {
    color_vertex_set_as_list_instance(
        g, layering.members[static_cast<std::size_t>(i)], palette, schedule,
        schedule_colors, engine, rng, c, ledger, phase, pool);
  }
}

}  // namespace deltacol
