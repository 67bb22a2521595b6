#include "dcc/dcc.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "graph/components.h"
#include "graph/frontier_bfs.h"
#include "graph/structure.h"
#include "graph/traversal.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

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
  // extract_small_dcc's BFS over the block and its even-cycle candidates.
  std::vector<int> depth, parent, order;
  std::vector<int> cycle, cycle_tail, best_cycle;
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
// The block is s.best_block, marked in s.in_block, and `root` is its
// smallest vertex, where the BFS starts. Returns ball-local ids in no
// particular order, as a view into s valid until the next call.
std::span<const int> extract_small_dcc(const BallCsr& g, int root,
                                       BallKernelScratch& s) {
  const std::span<const int> block = s.best_block;
  if (block.size() <= 6) return block;
  auto& depth = s.depth;
  auto& parent = s.parent;
  depth.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  parent.assign(static_cast<std::size_t>(g.num_vertices()), -1);
  s.order.assign(1, root);
  depth[static_cast<std::size_t>(root)] = 0;
  for (std::size_t head = 0; head < s.order.size(); ++head) {
    const int u = s.order[head];
    for (int w : g.neighbors(u)) {
      if (!s.in_block[static_cast<std::size_t>(w)]) continue;
      if (depth[static_cast<std::size_t>(w)] == -1) {
        depth[static_cast<std::size_t>(w)] = depth[static_cast<std::size_t>(u)] + 1;
        parent[static_cast<std::size_t>(w)] = u;
        s.order.push_back(w);
      }
    }
  }
  auto cycle_of = [&](int u, int w) {
    // u at depth d, w at depth d+1 with parent(w) != u: walk both up to the
    // LCA; the union plus edge (u, w) is an even cycle.
    s.cycle.assign(1, u);
    s.cycle_tail.assign(1, w);
    int a = u, b = w;
    while (depth[static_cast<std::size_t>(b)] >
           depth[static_cast<std::size_t>(a)]) {
      b = parent[static_cast<std::size_t>(b)];
      s.cycle_tail.push_back(b);
    }
    while (a != b) {
      a = parent[static_cast<std::size_t>(a)];
      b = parent[static_cast<std::size_t>(b)];
      s.cycle.push_back(a);
      s.cycle_tail.push_back(b);
    }
    s.cycle_tail.pop_back();  // LCA appears in s.cycle already
    s.cycle.insert(s.cycle.end(), s.cycle_tail.begin(), s.cycle_tail.end());
  };
  s.best_cycle.clear();
  for (int u : s.order) {
    for (int w : g.neighbors(u)) {
      if (!s.in_block[static_cast<std::size_t>(w)]) continue;
      if (depth[static_cast<std::size_t>(w)] !=
              depth[static_cast<std::size_t>(u)] + 1 ||
          parent[static_cast<std::size_t>(w)] == u) {
        continue;
      }
      cycle_of(u, w);
      // An even cycle inducing a complete graph (K4, K6, ...) is a clique,
      // not a DCC; skip those candidates.
      if (induces_clique(g, std::span<const int>(s.cycle))) continue;
      if (s.best_cycle.empty() || s.cycle.size() < s.best_cycle.size()) {
        s.best_cycle.swap(s.cycle);
      }
    }
  }
  if (s.best_cycle.empty()) return block;
  return s.best_cycle;
}

// v's nomination: appends to `out` the sorted parent ids of a small DCC
// inside the nearest non-Gallai block of v's r-ball, or nothing when the
// ball is a Gallai tree. Costs one BFS and an edge count for a tree ball;
// other balls add a ball-local CSR and one lowpoint DFS over it.
void nominate(const Graph& g, int v, int r, BallKernelScratch& s,
              std::vector<int>& out) {
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
  if (twice_edges == 2 * (k - 1)) return;

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
  if (best_dist == -1) return;

  // Shrink the winning block to a small DCC (see extract_small_dcc).
  if (s.in_block.size() < ball.size()) s.in_block.resize(ball.size(), 0);
  int root = s.best_block.front();
  for (int x : s.best_block) {
    s.in_block[static_cast<std::size_t>(x)] = 1;
    root = std::min(root, x);
  }
  const auto begin = static_cast<std::ptrdiff_t>(out.size());
  for (int x : extract_small_dcc(s.csr, root, s)) {
    out.push_back(ball[static_cast<std::size_t>(x)]);
  }
  for (int x : s.best_block) s.in_block[static_cast<std::size_t>(x)] = 0;
  std::sort(out.begin() + begin, out.end());
}

std::uint64_t hash_set(std::span<const int> set) {
  std::uint64_t h = set.size();
  for (int x : set) {
    std::uint64_t state = h ^ static_cast<std::uint32_t>(x);
    h = splitmix64(state);
  }
  return h;
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
  // hottest loop of the randomized pipeline). A chunk appends its
  // nominations, in id order, to its own flat buffer chunk_sets[c], and
  // set_size[v] is the length of v's. Chunk c's ascending range ends at
  // chunk_end[c]. The cross-node deduplication happens serially below, in
  // id order, so DCC indices are identical for every thread count.
  // Chunk cap = one per executor: each chunk allocates its O(n) scratch
  // vectors, so more chunks than executors would only multiply that cost
  // (chunk boundaries are not observable — results are unchanged).
  const int max_chunks = pool != nullptr ? pool->num_threads() : 1;
  const int num_chunks =
      pool != nullptr ? pool->num_range_chunks(n, max_chunks) : 1;
  std::vector<std::vector<int>> chunk_sets(static_cast<std::size_t>(num_chunks));
  std::vector<int> chunk_end(static_cast<std::size_t>(num_chunks), 0);
  std::vector<int> set_size(static_cast<std::size_t>(n), 0);
  auto analyze_range = [&](int chunk, int lo, int hi) {
    // One scratch per chunk: its O(n) arrays (BFS stamps, ball marks, local
    // ids) are allocated once and amortized over the chunk's balls.
    BallKernelScratch scratch;
    scratch.in_ball.assign(static_cast<std::size_t>(n), 0);
    scratch.local_index.assign(static_cast<std::size_t>(n), -1);
    auto& sets = chunk_sets[static_cast<std::size_t>(chunk)];
    for (int v = lo; v < hi; ++v) {
      const auto before = sets.size();
      nominate(g, v, r, scratch, sets);
      set_size[static_cast<std::size_t>(v)] =
          static_cast<int>(sets.size() - before);
    }
    chunk_end[static_cast<std::size_t>(chunk)] = hi;
  };
  pooled_ranges(pool, 0, n, analyze_range, max_chunks);

  // Serial deduplication in id order through an open-addressing table of
  // DCC indices: the first nominator of a set wins its index.
  int nominators = 0;
  for (int v = 0; v < n; ++v) {
    if (set_size[static_cast<std::size_t>(v)] > 0) ++nominators;
  }
  std::size_t capacity = 1;
  while (capacity < 2 * static_cast<std::size_t>(nominators)) capacity *= 2;
  std::vector<int> table(capacity, -1);
  for (int c = 0, v = 0; c < num_chunks; ++c) {
    const int* next = chunk_sets[static_cast<std::size_t>(c)].data();
    for (; v < chunk_end[static_cast<std::size_t>(c)]; ++v) {
      const int size = set_size[static_cast<std::size_t>(v)];
      if (size == 0) continue;
      const std::span<const int> set(next, static_cast<std::size_t>(size));
      next += size;
      std::size_t slot = hash_set(set) & (capacity - 1);
      while (table[slot] != -1 &&
             !std::ranges::equal(
                 out.dccs[static_cast<std::size_t>(table[slot])], set)) {
        slot = (slot + 1) & (capacity - 1);
      }
      if (table[slot] == -1) {
        table[slot] = static_cast<int>(out.dccs.size());
        out.dccs.emplace_back(set.begin(), set.end());
      }
      out.has_dcc[static_cast<std::size_t>(v)] = true;
      out.selected[static_cast<std::size_t>(v)] = table[slot];
    }
  }

  // Radii of the selected DCCs: each is the smallest eccentricity of a BFS
  // confined to the DCC's members. The max over DCCs is order free, so the
  // scan runs in chunks of DCC indices, each with its own BFS scratch and
  // member marks; a DCC stops at the first member whose eccentricity cannot
  // raise its chunk's max.
  if (out.dccs.empty()) return out;
  const int num_dccs = static_cast<int>(out.dccs.size());
  const int radius_chunks =
      pool != nullptr ? pool->num_range_chunks(num_dccs, max_chunks) : 1;
  std::vector<int> chunk_radius(static_cast<std::size_t>(radius_chunks), 0);
  pooled_ranges(
      pool, 0, num_dccs,
      [&](int chunk, int lo, int hi) {
        BfsScratch bfs;
        std::vector<char> member(static_cast<std::size_t>(n), 0);
        const auto is_member = [&](int w) {
          return member[static_cast<std::size_t>(w)] != 0;
        };
        int best = 0;
        for (int i = lo; i < hi; ++i) {
          const auto& dcc = out.dccs[static_cast<std::size_t>(i)];
          for (int v : dcc) member[static_cast<std::size_t>(v)] = 1;
          int radius = n;
          for (int v : dcc) {
            bfs.run_filtered(g, v, -1, is_member);
            radius = std::min(radius, bfs.num_levels() - 1);
            if (radius <= best) break;
          }
          best = std::max(best, radius);
          for (int v : dcc) member[static_cast<std::size_t>(v)] = 0;
        }
        chunk_radius[static_cast<std::size_t>(chunk)] = best;
      },
      max_chunks);
  out.max_dcc_radius =
      *std::max_element(chunk_radius.begin(), chunk_radius.end());
  return out;
}

Graph build_dcc_virtual_graph(const Graph& g,
                              const std::vector<std::vector<int>>& dccs) {
  const int n = g.num_vertices();
  const int k = static_cast<int>(dccs.size());
  // Row v: the indices of the DCCs containing v, ascending.
  std::size_t num_pairs = 0;
  for (const auto& dcc : dccs) num_pairs += dcc.size();
  const Rows member = bucket_rows(n, num_pairs, [&](const auto& emit) {
    for (int i = 0; i < k; ++i) {
      for (int v : dccs[static_cast<std::size_t>(i)]) emit(v, i);
    }
  });
  // DCC i links to every j > i that contains one of its vertices (a shared
  // vertex) or a neighbor of one (a joining edge of g). Each such edge is
  // emitted once, from its lower end: linked_from[j] == i marks it done.
  std::vector<int> linked_from(static_cast<std::size_t>(k), -1);
  std::vector<Edge> edges;
  auto link = [&](int i, int u) {
    for (int j : member[u]) {
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
