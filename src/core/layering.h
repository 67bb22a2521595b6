// The paper's layering technique (Sections 1.3 and 3).
//
// Pick a base set B0, define layer B_i as the vertices at distance exactly i
// from B0, remove all layers from the graph, and later color the layers in
// reverse order: when layer B_i is colored, each of its vertices still has
// an uncolored neighbor in B_{i-1}, so coloring G[B_i] while respecting
// already-colored neighbors is a (deg+1)-list coloring instance. The base
// layer is colored last by case-specific machinery (ruling-set independence
// + Brooks in Theorem 4; independent DCCs in Phase (9); free nodes/DCCs in
// Section 4.3).
#pragma once

#include <string_view>
#include <vector>

#include "coloring/coloring.h"
#include "coloring/list_coloring.h"
#include "graph/graph.h"
#include "local/round_ledger.h"
#include "util/rng.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

inline constexpr int kNoLayer = -1;

struct Layering {
  // layer[v] = i if v is in B_i (0 = base), kNoLayer if v was not reached
  // within max_depth (it stays in the remainder graph H).
  std::vector<int> layer;
  int num_layers = 0;  // 1 + max assigned layer index
  // Vertices of each layer, by index.
  std::vector<std::vector<int>> members;
};

// Layers by G-distance to `base` (layer 0 = base itself), truncated at
// max_depth (pass a negative max_depth for unbounded). The restricted
// variant confines the BFS to `allowed` vertices (used for the C-layers of
// Phase (5), which grow through uncolored vertices of H only). One serial
// multi-source BFS (graph/frontier_bfs.h). `pool` is unused: it stays only
// because perfbench/src/replay.cpp passes one (ROADMAP, perfbench shim).
Layering build_layers(const Graph& g, const std::vector<int>& base,
                      int max_depth, ThreadPool* pool = nullptr);
Layering build_layers_restricted(const Graph& g, const std::vector<int>& base,
                                 int max_depth,
                                 const std::vector<bool>& allowed);

// Colors layers num_layers-1, ..., 1 (NOT layer 0) of the layering, in
// reverse order, respecting whatever `c` already contains: each layer is
// one (deg+1)-list instance on palette {0..delta-1}
// (color_vertex_set_as_list_instance, coloring/list_coloring.h), charged to
// `phase`. `schedule` is the symmetry-breaking coloring used by the
// deterministic engine and by the randomized engine's fallback.
void color_layers_in_reverse(const Graph& g, const Layering& layering,
                             int delta, const Coloring& schedule,
                             int schedule_colors, ListEngine engine, Rng* rng,
                             Coloring& c, RoundLedger& ledger,
                             std::string_view phase, ThreadPool* pool = nullptr);

}  // namespace deltacol
