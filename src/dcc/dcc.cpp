#include "dcc/dcc.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>

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

namespace {

// A 2-connected block (or a bridge) with k vertices and e edges is a clique
// iff e = k(k-1)/2, and an odd cycle iff e = k with k odd: all its degrees
// are at least 2, so e = k forces every degree to be exactly 2.
bool is_gallai_block(std::span<const int> block, std::int64_t e) {
  const auto k = static_cast<std::int64_t>(block.size());
  return e == k * (k - 1) / 2 || (e == k && k % 2 == 1);
}

// Does g have a block that is neither a clique nor an odd cycle? Stops the
// DFS at the first one.
bool has_dcc_block(const Graph& g) {
  bool found = false;
  BlockScratch scratch;
  for_each_block(g, scratch, [&](std::span<const int> block, std::int64_t e) {
    found = !is_gallai_block(block, e);
    return !found;
  });
  return found;
}

}  // namespace

std::vector<std::vector<int>> dcc_blocks(const Graph& g) {
  std::vector<std::vector<int>> out;
  BlockScratch scratch;
  for_each_block(g, scratch, [&](std::span<const int> block, std::int64_t e) {
    if (!is_gallai_block(block, e)) {
      out.emplace_back(block.begin(), block.end());
      std::sort(out.back().begin(), out.back().end());
    }
    return true;
  });
  return out;
}

bool ball_contains_dcc(const Graph& g, int v, int r) {
  const auto sub = induced_subgraph(g, ball(g, v, r));
  return !is_gallai_tree(sub.graph);
}

namespace {

// The r-ball's induced subgraph in ball-local ids, built in buffers that a
// chunk reuses across its balls. Local id i is the i-th vertex of the ball
// BFS's discovery order, and each adjacency is sorted by local id — the
// graph Graph::from_edges would build, which extract_small_dcc's BFS order
// depends on.
struct BallCsr {
  std::vector<int> offsets{0};
  std::vector<int> adj;

  int num_vertices() const { return static_cast<int>(offsets.size()) - 1; }
  std::span<const int> neighbors(int v) const {
    const auto vi = static_cast<std::size_t>(v);
    return {adj.data() + offsets[vi],
            static_cast<std::size_t>(offsets[vi + 1] - offsets[vi])};
  }
  bool has_edge(int u, int v) const {
    const auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
  }
};

// Per-chunk state of the ball kernel; every vector outlives the chunk's
// balls, so a ball allocates nothing once the buffers have grown.
struct BallKernelScratch {
  BfsScratch ball;
  std::vector<char> in_ball;     // ball membership marks, 0 between balls
  std::vector<int> local_index;  // parent id -> ball-local id, or -1
  BallCsr csr;
  BlockScratch blocks;
  std::vector<int> best_block;   // ball-local ids of the nearest DCC block
  std::vector<int> key, best_key;
  std::vector<char> in_block;    // membership marks of best_block
};

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
//
// The block is given as its vertices (any order), their membership marks
// `in_block`, and its smallest vertex `root`, where the BFS starts. Returns
// ball-local ids in no particular order.
std::vector<int> extract_small_dcc(const BallCsr& g,
                                   std::span<const int> block, int root,
                                   const std::vector<char>& in_block) {
  if (block.size() <= 6) return {block.begin(), block.end()};
  std::vector<int> depth(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<int> parent(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<int> order{root};
  depth[static_cast<std::size_t>(root)] = 0;
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
  if (best.empty()) return {block.begin(), block.end()};
  return best;
}

// v's nomination: the sorted parent ids of a small DCC inside the nearest
// non-Gallai block of v's r-ball, or an empty set when the ball is a Gallai
// tree. Costs one BFS and an edge count for a tree ball; other balls add a
// ball-local CSR and one lowpoint DFS over it.
std::vector<int> nominate(const Graph& g, int v, int r, BallKernelScratch& s) {
  s.ball.run(g, v, r);
  const auto ball = s.ball.order();
  const auto k = static_cast<std::int64_t>(ball.size());
  // A connected ball with k - 1 edges is a tree: all its blocks are K2.
  // The count reads byte marks, a quarter of the BFS stamps' footprint.
  for (int u : ball) s.in_ball[static_cast<std::size_t>(u)] = 1;
  std::int64_t twice_edges = 0;
  for (int u : ball) {
    for (int w : g.neighbors(u)) {
      twice_edges += s.in_ball[static_cast<std::size_t>(w)];
    }
  }
  for (int u : ball) s.in_ball[static_cast<std::size_t>(u)] = 0;
  if (twice_edges == 2 * (k - 1)) return {};

  for (std::size_t i = 0; i < ball.size(); ++i) {
    s.local_index[static_cast<std::size_t>(ball[i])] = static_cast<int>(i);
  }
  s.csr.offsets.assign(1, 0);
  s.csr.adj.clear();
  for (int u : ball) {
    for (int w : g.neighbors(u)) {
      const int j = s.local_index[static_cast<std::size_t>(w)];
      if (j != -1) s.csr.adj.push_back(j);
    }
    std::sort(s.csr.adj.begin() + s.csr.offsets.back(), s.csr.adj.end());
    s.csr.offsets.push_back(static_cast<int>(s.csr.adj.size()));
  }
  for (int u : ball) s.local_index[static_cast<std::size_t>(u)] = -1;

  // Pick the non-Gallai block nearest to v (distance 0 if v belongs to one).
  // Inside an r-ball, BFS distances from v are graph distances, so the ball
  // BFS measures them. Ties go to the lexicographically smallest parent-id
  // vertex set; those keys are built only when a tie happens.
  auto sorted_key = [&](std::span<const int> block, std::vector<int>& key) {
    key.clear();
    for (int x : block) key.push_back(ball[static_cast<std::size_t>(x)]);
    std::sort(key.begin(), key.end());
  };
  int best_dist = -1;
  bool best_keyed = false;
  for_each_block(s.csr, s.blocks,
                 [&](std::span<const int> block, std::int64_t e) {
    if (is_gallai_block(block, e)) return true;
    int d = r;
    for (int x : block) {
      d = std::min(d, s.ball.dist(ball[static_cast<std::size_t>(x)]));
    }
    if (best_dist != -1 && d > best_dist) return true;
    if (best_dist == d) {
      if (!best_keyed) sorted_key(s.best_block, s.best_key);
      best_keyed = true;
      sorted_key(block, s.key);
      if (!(s.key < s.best_key)) return true;
      s.best_key.swap(s.key);
    } else {
      best_keyed = false;
    }
    best_dist = d;
    s.best_block.assign(block.begin(), block.end());
    return true;
  });
  if (best_dist == -1) return {};

  // Shrink the winning block to a small DCC (see extract_small_dcc).
  if (s.in_block.size() < ball.size()) s.in_block.resize(ball.size(), 0);
  int root = s.best_block.front();
  for (int x : s.best_block) {
    s.in_block[static_cast<std::size_t>(x)] = 1;
    root = std::min(root, x);
  }
  std::vector<int> best_set;
  for (int x : extract_small_dcc(s.csr, s.best_block, root, s.in_block)) {
    best_set.push_back(ball[static_cast<std::size_t>(x)]);
  }
  for (int x : s.best_block) s.in_block[static_cast<std::size_t>(x)] = 0;
  std::sort(best_set.begin(), best_set.end());
  return best_set;
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
  if (!has_dcc_block(g)) return out;

  // Every node inspects its own ball and nominates one DCC vertex set — a
  // pure function of the graph, so the balls are analyzed in parallel (the
  // hottest loop of the randomized pipeline). best_sets[v] is v-private;
  // the cross-node deduplication happens serially below, in id order, so
  // DCC indices are identical for every thread count.
  std::vector<std::vector<int>> best_sets(static_cast<std::size_t>(n));
  auto analyze_range = [&](int /*chunk*/, int lo, int hi) {
    // One scratch per chunk: its O(n) arrays (BFS stamps, ball marks, local
    // ids) are allocated once and amortized over the chunk's balls.
    BallKernelScratch scratch;
    scratch.in_ball.assign(static_cast<std::size_t>(n), 0);
    scratch.local_index.assign(static_cast<std::size_t>(n), -1);
    for (int v = lo; v < hi; ++v) {
      best_sets[static_cast<std::size_t>(v)] = nominate(g, v, r, scratch);
    }
  };
  // Chunk cap = one per executor: each chunk allocates its O(n) scratch
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
  const int n = g.num_vertices();
  const int k = static_cast<int>(dccs.size());
  // Membership as a CSR built by counting sort: the DCC indices containing
  // v, ascending, are member[offset[v] .. offset[v + 1]).
  std::vector<int> offset(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& dcc : dccs) {
    for (int v : dcc) ++offset[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
    offset[v + 1] += offset[v];
  }
  std::vector<int> member(static_cast<std::size_t>(offset.back()));
  std::vector<int> cursor(offset.begin(), offset.end() - 1);
  for (int i = 0; i < k; ++i) {
    for (int v : dccs[static_cast<std::size_t>(i)]) {
      auto& at = cursor[static_cast<std::size_t>(v)];
      member[static_cast<std::size_t>(at++)] = i;
    }
  }
  // DCC i links to every j > i that contains one of its vertices (a shared
  // vertex) or a neighbor of one (a joining edge of g). Each such edge is
  // emitted once, from its lower end: linked_from[j] == i marks it done.
  std::vector<int> linked_from(static_cast<std::size_t>(k), -1);
  std::vector<Edge> edges;
  auto link = [&](int i, int u) {
    for (int idx = offset[static_cast<std::size_t>(u)];
         idx < offset[static_cast<std::size_t>(u) + 1]; ++idx) {
      const int j = member[static_cast<std::size_t>(idx)];
      if (j > i && linked_from[static_cast<std::size_t>(j)] != i) {
        linked_from[static_cast<std::size_t>(j)] = i;
        edges.emplace_back(i, j);
      }
    }
  };
  for (int i = 0; i < k; ++i) {
    for (int v : dccs[static_cast<std::size_t>(i)]) {
      link(i, v);
      for (int u : g.neighbors(v)) link(i, u);
    }
  }
  return Graph::from_edges(k, edges);
}

}  // namespace deltacol
