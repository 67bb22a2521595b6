#include "dcc/dcc.h"

#include <algorithm>
#include <map>

#include "graph/components.h"
#include "graph/frontier_bfs.h"
#include "graph/structure.h"
#include "graph/traversal.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

bool is_dcc(const Graph& g) {
  if (g.num_vertices() < 3) return false;
  if (is_clique(g) || is_odd_cycle(g)) return false;
  // 2-connected == one block covering all vertices and no articulation point.
  const auto bd = block_decomposition(g);
  if (bd.blocks.size() != 1) return false;
  return static_cast<int>(bd.blocks.front().size()) == g.num_vertices();
}

std::vector<std::vector<int>> dcc_blocks(const Graph& g) {
  std::vector<std::vector<int>> out;
  for (const auto& block : block_decomposition(g).blocks) {
    // Fast paths: a 2-vertex block is a bridge (a K2 clique); a 3-vertex
    // 2-connected block is a triangle (K3). Neither is ever a DCC; this
    // matters because sparse balls consist almost entirely of bridges.
    if (block.size() <= 3) continue;
    const auto sub = induced_subgraph(g, block);
    if (!is_clique(sub.graph) && !is_odd_cycle(sub.graph)) {
      out.push_back(block);
    }
  }
  return out;
}

bool ball_contains_dcc(const Graph& g, int v, int r) {
  const auto sub = induced_subgraph(g, ball(g, v, r));
  return !is_gallai_tree(sub.graph);
}

namespace {

// Extracts a small DCC from a non-Gallai block: the vertex set of any even
// cycle induces a 2-connected subgraph that is neither an odd cycle nor
// (unless it is exactly K4) a clique — i.e. a DCC. We find an even cycle as
// a non-tree BFS edge joining adjacent levels (tree paths to the LCA plus
// the edge have even total length). Selecting whole blocks would be correct
// but quadratically expensive: in sparse random graphs the non-Gallai block
// of a ball typically spans much of the ball, so every node would select a
// near-distinct giant component and the virtual graph GDCC would blow up.
// Falls back to the full block when no such edge exists (rare: all non-tree
// edges level-parallel) or the cycle induces K4.
std::vector<int> extract_small_dcc(const Graph& g,
                                   const std::vector<int>& block) {
  if (block.size() <= 6) return block;
  std::vector<char> in_block(static_cast<std::size_t>(g.num_vertices()), 0);
  for (int v : block) in_block[static_cast<std::size_t>(v)] = 1;

  std::vector<int> depth(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<int> parent(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<int> order{block.front()};
  depth[static_cast<std::size_t>(block.front())] = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    for (int w : g.neighbors(u)) {
      if (!in_block[static_cast<std::size_t>(w)]) continue;
      if (depth[static_cast<std::size_t>(w)] == -1) {
        depth[static_cast<std::size_t>(w)] = depth[static_cast<std::size_t>(u)] + 1;
        parent[static_cast<std::size_t>(w)] = u;
        order.push_back(w);
      }
    }
  }
  auto cycle_of = [&](int u, int w) {
    // u at depth d, w at depth d+1 with parent(w) != u: walk both up to the
    // LCA; the union plus edge (u, w) is an even cycle.
    std::vector<int> pu{u}, pw{w};
    int a = u, b = w;
    while (depth[static_cast<std::size_t>(b)] >
           depth[static_cast<std::size_t>(a)]) {
      b = parent[static_cast<std::size_t>(b)];
      pw.push_back(b);
    }
    while (a != b) {
      a = parent[static_cast<std::size_t>(a)];
      b = parent[static_cast<std::size_t>(b)];
      pu.push_back(a);
      pw.push_back(b);
    }
    pw.pop_back();  // LCA appears in pu already
    pu.insert(pu.end(), pw.begin(), pw.end());
    return pu;
  };
  std::vector<int> best;
  for (int u : order) {
    for (int w : g.neighbors(u)) {
      if (!in_block[static_cast<std::size_t>(w)]) continue;
      if (depth[static_cast<std::size_t>(w)] !=
              depth[static_cast<std::size_t>(u)] + 1 ||
          parent[static_cast<std::size_t>(w)] == u) {
        continue;
      }
      auto cyc = cycle_of(u, w);
      // An even cycle inducing a complete graph (K4, K6, ...) is a clique,
      // not a DCC; skip those candidates.
      if (induces_clique(g, cyc)) continue;
      if (best.empty() || cyc.size() < best.size()) best = std::move(cyc);
    }
  }
  if (best.empty()) return block;
  std::sort(best.begin(), best.end());
  return best;
}

}  // namespace

DccDetection detect_dccs(const Graph& g, int r, RoundLedger& ledger,
                         std::string_view phase, ThreadPool* pool) {
  DC_REQUIRE(r >= 1, "DCC detection radius must be >= 1");
  const int n = g.num_vertices();
  DccDetection out;
  out.has_dcc.assign(static_cast<std::size_t>(n), false);
  out.selected.assign(static_cast<std::size_t>(n), -1);

  // One parallel gather of radius r: every node learns its ball (plus one
  // extra round to exchange the selections for deduplication).
  ledger.charge(r + 1, phase);

  // Global fast path: induced subgraphs of Gallai trees are Gallai trees
  // (their 2-connected subgraphs live inside clique / odd-cycle blocks), so
  // when the whole graph is Gallai no ball anywhere contains a DCC. This
  // matters for Phase (6), which probes small DCC-free components at radius
  // R ~ 2 log N — quadratic if done ball by ball.
  if (dcc_blocks(g).empty()) return out;

  // Every node inspects its own ball and nominates one DCC vertex set — a
  // pure function of the graph, so the balls are analyzed in parallel (the
  // hottest loop of the randomized pipeline). best_sets[v] is v-private;
  // the cross-node deduplication happens serially below, in id order, so
  // DCC indices are identical for every thread count.
  std::vector<std::vector<int>> best_sets(static_cast<std::size_t>(n));
  auto analyze_range = [&](int /*chunk*/, int lo, int hi) {
    // Reusable per-chunk scratch: one epoch-stamped visitation state for
    // the r-balls (O(n), amortized over the chunk's balls), one for the
    // within-ball distance sweep, and one local-id map — allocating any of
    // these per ball would dominate the runtime at simulation scale.
    BfsScratch ball_scratch;
    BfsScratch sub_scratch;
    std::vector<int> local_index(static_cast<std::size_t>(n), -1);
    std::vector<Edge> ball_edges;

    for (int v = lo; v < hi; ++v) {
      // Truncated frontier BFS collecting the ball, in discovery order.
      ball_scratch.run(g, v, r);
      const auto ball_vertices = ball_scratch.order();
      ball_edges.clear();
      for (int i = 0; i < static_cast<int>(ball_vertices.size()); ++i) {
        local_index[static_cast<std::size_t>(
            ball_vertices[static_cast<std::size_t>(i)])] = i;
      }
      for (int i = 0; i < static_cast<int>(ball_vertices.size()); ++i) {
        const int u = ball_vertices[static_cast<std::size_t>(i)];
        for (int w : g.neighbors(u)) {
          const int j = local_index[static_cast<std::size_t>(w)];
          if (j > i) ball_edges.emplace_back(i, j);
        }
      }
      Subgraph sub;
      sub.graph = Graph::from_edges(static_cast<int>(ball_vertices.size()),
                                    ball_edges);
      sub.to_parent.assign(ball_vertices.begin(), ball_vertices.end());
      // Reset the id map before any early exit below (the BFS scratches
      // reset themselves by epoch).
      for (int u : ball_vertices) {
        local_index[static_cast<std::size_t>(u)] = -1;
      }

      const auto local_blocks = dcc_blocks(sub.graph);
      if (local_blocks.empty()) continue;

      // Pick the block nearest to v (distance 0 if v belongs to one); ties
      // by lexicographically smallest parent-id vertex set for determinism.
      const int v_local = 0;  // v is the BFS root of its own ball
      sub_scratch.run(sub.graph, v_local);
      int best_dist = -1;
      const std::vector<int>* best_block = nullptr;
      std::vector<int> best_key;
      for (const auto& block : local_blocks) {
        int d = sub.graph.num_vertices();
        std::vector<int> key;
        key.reserve(block.size());
        for (int x : block) {
          if (sub_scratch.visited(x)) {
            d = std::min(d, sub_scratch.dist(x));
          }
          key.push_back(sub.to_parent[static_cast<std::size_t>(x)]);
        }
        std::sort(key.begin(), key.end());
        if (best_dist == -1 || d < best_dist ||
            (d == best_dist && key < best_key)) {
          best_dist = d;
          best_block = &block;
          best_key = std::move(key);
        }
      }
      // Shrink the winning block to a small DCC (see extract_small_dcc).
      std::vector<int> best_set;
      for (int x : extract_small_dcc(sub.graph, *best_block)) {
        best_set.push_back(sub.to_parent[static_cast<std::size_t>(x)]);
      }
      std::sort(best_set.begin(), best_set.end());
      best_sets[static_cast<std::size_t>(v)] = std::move(best_set);
    }
  };
  // Chunk cap = one per executor: each chunk allocates two O(n) scratch
  // vectors, so more chunks than executors would only multiply that cost
  // (chunk boundaries are not observable — results are unchanged).
  pooled_ranges(pool, 0, n, analyze_range,
                pool != nullptr ? pool->num_threads() : 1);

  // Serial deduplication in id order: first nominator wins the index.
  std::map<std::vector<int>, int> dcc_index;
  for (int v = 0; v < n; ++v) {
    auto& best_set = best_sets[static_cast<std::size_t>(v)];
    if (best_set.empty()) continue;
    out.has_dcc[static_cast<std::size_t>(v)] = true;
    const auto [it, inserted] =
        dcc_index.try_emplace(std::move(best_set),
                              static_cast<int>(out.dccs.size()));
    if (inserted) out.dccs.push_back(it->first);
    out.selected[static_cast<std::size_t>(v)] = it->second;
  }

  // Radii of the selected DCCs: independent BFS sweeps, max-combined (order
  // free), so the scan parallelizes over DCC indices.
  const int num_dccs = static_cast<int>(out.dccs.size());
  std::vector<int> radius(static_cast<std::size_t>(num_dccs), 0);
  pooled_for(pool, 0, num_dccs, [&](int i) {
    const auto sub = induced_subgraph(g, out.dccs[static_cast<std::size_t>(i)]);
    radius[static_cast<std::size_t>(i)] = graph_radius(sub.graph);
  });
  for (int i = 0; i < num_dccs; ++i) {
    out.max_dcc_radius = std::max(out.max_dcc_radius,
                                  radius[static_cast<std::size_t>(i)]);
  }
  return out;
}

Graph build_dcc_virtual_graph(const Graph& g,
                              const std::vector<std::vector<int>>& dccs) {
  const int k = static_cast<int>(dccs.size());
  // membership[v] = list of DCC indices containing v.
  std::vector<std::vector<int>> membership(
      static_cast<std::size_t>(g.num_vertices()));
  for (int i = 0; i < k; ++i) {
    for (int v : dccs[static_cast<std::size_t>(i)]) {
      membership[static_cast<std::size_t>(v)].push_back(i);
    }
  }
  std::vector<Edge> edges;
  // Shared vertices.
  for (int v = 0; v < g.num_vertices(); ++v) {
    const auto& m = membership[static_cast<std::size_t>(v)];
    for (std::size_t a = 0; a < m.size(); ++a) {
      for (std::size_t b = a + 1; b < m.size(); ++b) {
        edges.emplace_back(m[a], m[b]);
      }
    }
  }
  // Edges of g between different DCCs.
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int u : g.neighbors(v)) {
      if (u <= v) continue;
      for (int i : membership[static_cast<std::size_t>(v)]) {
        for (int j : membership[static_cast<std::size_t>(u)]) {
          if (i != j) edges.emplace_back(std::min(i, j), std::max(i, j));
        }
      }
    }
  }
  return Graph::from_edges(k, edges);
}

}  // namespace deltacol
