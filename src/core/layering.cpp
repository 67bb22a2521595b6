#include "core/layering.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

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
  // The instance: the uncolored vertices, sorted and de-duplicated (the
  // vertex order of their induced subgraph).
  const int n = g.num_vertices();
  std::vector<int> todo;
  for (int v : vertices) {
    DC_REQUIRE(0 <= v && v < n, "subgraph vertex out of range");
    if (c[static_cast<std::size_t>(v)] == kUncolored) todo.push_back(v);
  }
  if (todo.empty()) return;
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  const int k = static_cast<int>(todo.size());
  // Both checks in one pass over each member's neighbors, with membership
  // looked up by induced_subgraph's rule.
  std::atomic<bool> short_list{false};  // fewer than deg + 1 free colors
  std::atomic<bool> clash{false};  // a class out of range or not independent
  const auto check = [&](auto&& member) {
    pooled_for(pool, 0, k, [&](int i) {
      const int v = todo[static_cast<std::size_t>(i)];
      const Color sv = schedule[static_cast<std::size_t>(v)];
      int degree = 0;   // in the instance
      int colored = 0;  // neighbors holding a color of [0, delta)
      if (sv < 0 || sv >= schedule_colors) clash = true;
      for (int w : g.neighbors(v)) {
        if (member(w)) {
          ++degree;
          if (schedule[static_cast<std::size_t>(w)] == sv) clash = true;
        } else if (c[w] != kUncolored && c[w] < delta) {
          ++colored;
        }
      }
      // The colored neighbors hold at most `colored` distinct colors, so
      // only a vertex with colored + degree >= delta can lack deg + 1.
      if (colored + degree >= delta &&
          static_cast<int>(free_colors(g, c, v, delta).size()) < degree + 1) {
        short_list = true;
      }
    });
  };
  if (static_cast<std::int64_t>(k) * kDenseSubgraphRatio < n) {
    check([&](int w) {
      return std::binary_search(todo.begin(), todo.end(), w);
    });
  } else {
    std::vector<char> in_todo(static_cast<std::size_t>(n), 0);
    for (int v : todo) in_todo[static_cast<std::size_t>(v)] = 1;
    check([&](int w) { return in_todo[static_cast<std::size_t>(w)] != 0; });
  }
  DC_ENSURE(!short_list,
            "layer instance is not (deg+1): some vertex lacks an uncolored "
            "lower-layer neighbor");
  if (engine == ListEngine::kDeterministic) {
    DC_REQUIRE(!clash, "schedule must be a proper coloring");
    // In place: each member takes the smallest color of [0, delta) no
    // G-neighbor holds, which is the first color of its list (free at the
    // start) that no member colored in an earlier class took. The (deg + 1)
    // check leaves every member one.
    sweep_schedule_classes(
        todo, schedule, schedule_colors,
        [&](int v) {
          c[static_cast<std::size_t>(v)] =
              first_free_color(g, c, v, delta).value();
        },
        ledger, phase, pool);
    return;
  }
  DC_REQUIRE(rng != nullptr, "randomized engine needs an Rng");
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
  Coloring sub_c(static_cast<std::size_t>(sub.graph.num_vertices()), kUncolored);
  rand_list_coloring(sub.graph, lists, sub_schedule, schedule_colors, *rng,
                     sub_c, ledger, phase, pool);
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
