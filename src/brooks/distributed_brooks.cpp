#include "brooks/distributed_brooks.h"

#include <algorithm>
#include <cmath>

#include "coloring/brooks_seq.h"
#include "coloring/degree_choosable.h"
#include "dcc/dcc.h"
#include "graph/components.h"
#include "graph/frontier_bfs.h"
#include "graph/ops.h"
#include "graph/traversal.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

int brooks_search_radius(int n, int delta) {
  DC_REQUIRE(delta >= 3, "Brooks machinery needs delta >= 3");
  const double r = 2.0 * log_base(static_cast<double>(delta - 1),
                                  static_cast<double>(std::max(2, n)));
  return static_cast<int>(std::ceil(r)) + 2;
}

namespace {

// Walk the token from `path[0]` along the path; stops early if a free color
// appears. Returns the final token position.
int walk_token(const Graph& g, Coloring& c, const std::vector<int>& path,
               int delta) {
  int token = path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (first_free_color(g, c, token, delta).has_value()) break;
    const int next = path[i];
    // No free color => all delta neighbor colors distinct; stealing next's
    // color keeps the coloring proper once next is uncolored.
    c[static_cast<std::size_t>(token)] = c[static_cast<std::size_t>(next)];
    c[static_cast<std::size_t>(next)] = kUncolored;
    token = next;
  }
  return token;
}

// Shortest path from src to the nearest vertex satisfying `good`, within
// radius max_r; empty if none.
std::vector<int> path_to_nearest(const Graph& g, int src, int max_r,
                                 const std::vector<char>& good) {
  const int n = g.num_vertices();
  std::vector<int> parent(static_cast<std::size_t>(n), -2);
  std::vector<int> dist(static_cast<std::size_t>(n), kUnreachable);
  std::vector<int> queue;
  queue.push_back(src);
  dist[static_cast<std::size_t>(src)] = 0;
  parent[static_cast<std::size_t>(src)] = -1;
  int found = good[static_cast<std::size_t>(src)] ? src : -1;
  for (std::size_t head = 0; head < queue.size() && found == -1; ++head) {
    const int u = queue[head];
    if (dist[static_cast<std::size_t>(u)] >= max_r) break;
    for (int w : g.neighbors(u)) {
      if (dist[static_cast<std::size_t>(w)] != kUnreachable) continue;
      dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
      parent[static_cast<std::size_t>(w)] = u;
      if (good[static_cast<std::size_t>(w)]) {
        found = w;
        break;
      }
      queue.push_back(w);
    }
  }
  if (found == -1) return {};
  std::vector<int> path;
  for (int x = found; x != -1; x = parent[static_cast<std::size_t>(x)]) {
    path.push_back(x);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

BrooksFixResult brooks_fix(const Graph& g, Coloring& c, int v0, int delta,
                           int max_radius, BfsScratch* scratch,
                           bool defer_emergency) {
  DC_REQUIRE(delta >= 3, "brooks_fix requires delta >= 3");
  DC_REQUIRE(c[static_cast<std::size_t>(v0)] == kUncolored,
             "v0 must be the uncolored node");
  BrooksFixResult res;

  // Fast path: free color at v0 itself — no ball query, no copy.
  if (const auto x = first_free_color(g, c, v0, delta)) {
    c[static_cast<std::size_t>(v0)] = *x;
    return res;
  }

  // Epoch-stamped handle for the whole-graph queries below; a caller-held
  // scratch amortizes the O(n) state over a loop of fixes.
  BfsScratch local_scratch;
  BfsScratch& bs = scratch != nullptr ? *scratch : local_scratch;

  // Gather the search ball once; all structure decisions are local to it.
  // induced_subgraph sorts its input, so passing the scratch's visit order
  // directly yields the same subgraph the classic sorted ball() produced.
  bs.run(g, v0, max_radius);
  // Snapshot the ball (ids, distances, colors) before any mutation. On the
  // non-emergency paths every write lands inside the ball, so the radius is
  // measured against this snapshot alone — no whole-graph color copy and no
  // re-traversal, which is what lets fixes with disjoint balls run
  // concurrently (schedule_disjoint_brooks_fixes) without ever reading
  // another walk's writes.
  std::vector<int> ball_nodes(bs.order().begin(), bs.order().end());
  std::vector<int> ball_dist;
  std::vector<Color> ball_before;
  ball_dist.reserve(ball_nodes.size());
  ball_before.reserve(ball_nodes.size());
  for (int u : ball_nodes) {
    ball_dist.push_back(bs.dist(u));
    ball_before.push_back(c[static_cast<std::size_t>(u)]);
  }
  const auto ball_sub = induced_subgraph(g, ball_nodes);
  const Graph& B = ball_sub.graph;
  const int v0_local = ball_sub.local_id(v0);

  // Candidate targets inside the ball: vertices of global degree < delta, or
  // vertices lying in a DCC block of the ball.
  const int bn = B.num_vertices();
  std::vector<char> deficient(static_cast<std::size_t>(bn), 0);
  for (int i = 0; i < bn; ++i) {
    const int p = ball_sub.to_parent[static_cast<std::size_t>(i)];
    if (g.degree(p) < delta) deficient[static_cast<std::size_t>(i)] = 1;
  }
  const auto blocks = dcc_blocks(B);
  std::vector<char> in_dcc(static_cast<std::size_t>(bn), 0);
  std::vector<int> dcc_of(static_cast<std::size_t>(bn), -1);
  for (int bi = 0; bi < static_cast<int>(blocks.size()); ++bi) {
    for (int x : blocks[static_cast<std::size_t>(bi)]) {
      in_dcc[static_cast<std::size_t>(x)] = 1;
      dcc_of[static_cast<std::size_t>(x)] = bi;
    }
  }

  std::vector<char> good(static_cast<std::size_t>(bn), 0);
  for (int i = 0; i < bn; ++i) {
    good[static_cast<std::size_t>(i)] =
        (deficient[static_cast<std::size_t>(i)] ||
         in_dcc[static_cast<std::size_t>(i)])
            ? 1
            : 0;
  }

  const auto local_path = path_to_nearest(B, v0_local, max_radius, good);
  if (local_path.empty()) {
    // Lemma 16 says this is unreachable once max_radius >= 2 log_{D-1} n on
    // nice graphs; emergency fallback for callers with a too-small radius:
    // recolor v0's whole connected component from scratch. Nothing has been
    // mutated yet, so a deferring caller can bail out here and run the
    // recolor serially after its barrier.
    if (defer_emergency) {
      res.deferred_emergency = true;
      return res;
    }
    const auto cc = connected_components(g);
    std::vector<int> comp_vertices;
    for (int u = 0; u < g.num_vertices(); ++u) {
      if (cc.component[static_cast<std::size_t>(u)] ==
          cc.component[static_cast<std::size_t>(v0)]) {
        comp_vertices.push_back(u);
      }
    }
    const auto comp = induced_subgraph(g, comp_vertices);
    std::vector<Color> comp_before;
    comp_before.reserve(comp_vertices.size());
    for (int u : comp_vertices) {
      comp_before.push_back(c[static_cast<std::size_t>(u)]);
    }
    const Coloring fresh = brooks_coloring_components(comp.graph, delta);
    for (int i = 0; i < comp.graph.num_vertices(); ++i) {
      c[comp.to_parent[static_cast<std::size_t>(i)]] = fresh[i];
    }
    res.used_component_recolor = true;
    // The recolor escapes the ball: measure the radius over the whole
    // component with a fresh unbounded BFS.
    bs.run(g, v0);
    int radius = 0;
    for (std::size_t i = 0; i < comp_vertices.size(); ++i) {
      const int u = comp_vertices[i];
      if (c[static_cast<std::size_t>(u)] != comp_before[i] && bs.visited(u)) {
        radius = std::max(radius, bs.dist(u));
      }
    }
    res.radius_used = radius;
    return res;
  }

  // Map the path to parent ids and walk the token along it.
  std::vector<int> path;
  path.reserve(local_path.size());
  for (int x : local_path) {
    path.push_back(ball_sub.to_parent[static_cast<std::size_t>(x)]);
  }
  const int token = walk_token(g, c, path, delta);
  if (const auto x = first_free_color(g, c, token, delta)) {
    // Early free color, or the deficient-node case.
    c[static_cast<std::size_t>(token)] = *x;
    res.used_deficient_node =
        deficient[static_cast<std::size_t>(ball_sub.local_id(token))] != 0;
  } else {
    // DCC case: the token reached the component's nearest vertex without
    // finding slack. Uncolor the block and recolor it from lists.
    const int token_local = ball_sub.local_id(token);
    DC_ENSURE(in_dcc[static_cast<std::size_t>(token_local)] != 0,
              "token ended neither at slack nor at a DCC");
    const auto& block = blocks[static_cast<std::size_t>(
        dcc_of[static_cast<std::size_t>(token_local)])];
    std::vector<int> block_parent;
    block_parent.reserve(block.size());
    for (int v : block) {
      block_parent.push_back(ball_sub.to_parent[static_cast<std::size_t>(v)]);
    }
    for (int p : block_parent) c[static_cast<std::size_t>(p)] = kUncolored;
    const bool recolored = color_from_free_colors(g, block_parent, delta, c);
    DC_ENSURE(recolored,
              "DCC recoloring failed: block was not degree-choosable?");
    res.used_dcc = true;
  }

  // Radius over the ball snapshot: on this path every change is inside the
  // ball, whose distances the gathering query already produced.
  int radius = 0;
  for (std::size_t i = 0; i < ball_nodes.size(); ++i) {
    if (c[static_cast<std::size_t>(ball_nodes[i])] != ball_before[i]) {
      radius = std::max(radius, ball_dist[i]);
    }
  }
  res.radius_used = radius;
  return res;
}

namespace {

#ifndef NDEBUG
// Debug guard for the scheduled fixes: what the concurrency argument
// actually uses is that one fix's WRITE ball (radius max_radius) never
// meets another fix's READ ball (radius max_radius + 1) — equivalent to
// pairwise base distance >= 2*max_radius + 2, the ruling-set guarantee.
// Two passes over an owner table, O(sum of ball sizes).
void assert_disjoint_brooks_balls(const Graph& g, const std::vector<int>& bases,
                                  int max_radius) {
  std::vector<int> write_owner(static_cast<std::size_t>(g.num_vertices()), -1);
  BfsScratch scratch;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    scratch.run(g, bases[i], max_radius);
    for (int u : scratch.order()) {
      DC_ENSURE(write_owner[static_cast<std::size_t>(u)] < 0,
                "scheduled Brooks fixes: recoloring balls overlap (bases "
                "closer than 2*max_radius + 2)");
      write_owner[static_cast<std::size_t>(u)] = static_cast<int>(i);
    }
  }
  for (std::size_t i = 0; i < bases.size(); ++i) {
    scratch.run(g, bases[i], max_radius + 1);
    for (int u : scratch.order()) {
      const int w = write_owner[static_cast<std::size_t>(u)];
      DC_ENSURE(w < 0 || w == static_cast<int>(i),
                "scheduled Brooks fixes: a fix's read ball meets another "
                "fix's write ball (bases closer than 2*max_radius + 2)");
    }
  }
}
#endif

}  // namespace

ScheduledBrooksFixes schedule_disjoint_brooks_fixes(
    const Graph& g, Coloring& c, const std::vector<int>& bases, int delta,
    int max_radius, ThreadPool* pool) {
  const int k = static_cast<int>(bases.size());
  ScheduledBrooksFixes out;
  out.results.resize(static_cast<std::size_t>(k));
  if (k == 0) return out;
#ifndef NDEBUG
  assert_disjoint_brooks_balls(g, bases, max_radius);
#endif

  // Pass 1 — concurrent walks, emergencies deferred. Each chunk owns one
  // BfsScratch (the O(n) visitation state), so the fan-out is capped at one
  // chunk per executor. Any chunking yields bit-identical results: the fixes
  // commute (disjoint read/write sets).
  pooled_ranges(
      pool, 0, k,
      [&](int /*chunk*/, int lo, int hi) {
        BfsScratch scratch;
        for (int i = lo; i < hi; ++i) {
          out.results[static_cast<std::size_t>(i)] =
              brooks_fix(g, c, bases[static_cast<std::size_t>(i)], delta,
                         max_radius, &scratch, /*defer_emergency=*/true);
        }
      },
      pool != nullptr ? pool->num_threads() : 1);

  // Pass 2 — serial, ascending index: complete the deferred Lemma-27
  // emergencies with the component recolor enabled. A recolor touches the
  // whole component and may color later deferred bases; those are skipped.
  BfsScratch serial_scratch;
  for (int i = 0; i < k; ++i) {
    auto& r = out.results[static_cast<std::size_t>(i)];
    if (r.deferred_emergency) {
      const int v = bases[static_cast<std::size_t>(i)];
      if (c[static_cast<std::size_t>(v)] != kUncolored) continue;  // skipped
      r = brooks_fix(g, c, v, delta, max_radius, &serial_scratch,
                     /*defer_emergency=*/false);
    }
    ++out.num_executed;
  }
  return out;
}

}  // namespace deltacol
