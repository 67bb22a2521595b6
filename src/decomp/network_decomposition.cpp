#include "decomp/network_decomposition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "coloring/coloring.h"
#include "coloring/list_coloring.h"
#include "coloring/linial.h"
#include "graph/frontier_bfs.h"
#include "graph/traversal.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

std::vector<std::vector<int>> NetworkDecomposition::cluster_vertex_sets() const {
  std::vector<std::vector<int>> sets(static_cast<std::size_t>(num_clusters()));
  for (int v = 0; v < static_cast<int>(cluster.size()); ++v) {
    sets[static_cast<std::size_t>(cluster[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  return sets;
}

namespace {

// Every vertex draws delta_v ~ Exp(beta); v joins the center u maximizing
// delta_u - dist(u, v) (every vertex is a potential center). Computed by a
// multi-source Dijkstra over the shifted keys. Distributed this runs in
// O(max shift) rounds, which we charge.
struct ShiftAssignment {
  std::vector<int> owner;
  int max_shift = 0;
};

ShiftAssignment shifted_voronoi(const Graph& g, double beta, Rng& rng) {
  const int n = g.num_vertices();
  std::vector<double> shift(static_cast<std::size_t>(n));
  double max_shift = 0.0;
  for (int v = 0; v < n; ++v) {
    // Exponential with rate beta, truncated to keep rounds bounded.
    const double e = -std::log(1.0 - rng.next_double()) / beta;
    const double cap = 4.0 * std::log(static_cast<double>(std::max(2, n))) / beta;
    shift[static_cast<std::size_t>(v)] = std::min(e, cap);
    max_shift = std::max(max_shift, shift[static_cast<std::size_t>(v)]);
  }
  // Key of v via center u: shift[u] - dist(u, v); maximize. Dijkstra on
  // negated keys with real-valued priorities.
  using Item = std::pair<double, int>;  // (key, vertex); max-heap
  std::priority_queue<Item> pq;
  std::vector<double> best(static_cast<std::size_t>(n),
                           -std::numeric_limits<double>::infinity());
  ShiftAssignment out;
  out.owner.assign(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    best[static_cast<std::size_t>(v)] = shift[static_cast<std::size_t>(v)];
    out.owner[static_cast<std::size_t>(v)] = v;
    pq.emplace(best[static_cast<std::size_t>(v)], v);
  }
  while (!pq.empty()) {
    const auto [key, v] = pq.top();
    pq.pop();
    if (key < best[static_cast<std::size_t>(v)]) continue;  // stale
    for (int u : g.neighbors(v)) {
      const double cand = key - 1.0;
      if (cand > best[static_cast<std::size_t>(u)]) {
        best[static_cast<std::size_t>(u)] = cand;
        out.owner[static_cast<std::size_t>(u)] = out.owner[static_cast<std::size_t>(v)];
        pq.emplace(cand, u);
      }
    }
  }
  out.max_shift = static_cast<int>(std::ceil(max_shift));
  return out;
}

}  // namespace

Graph build_cluster_graph(const Graph& g, const std::vector<int>& cluster,
                          int num_clusters) {
  std::vector<Edge> edges;
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int u : g.neighbors(v)) {
      const int cv = cluster[static_cast<std::size_t>(v)];
      const int cu = cluster[static_cast<std::size_t>(u)];
      if (cv < cu) edges.emplace_back(cv, cu);
    }
  }
  return Graph::from_edges(num_clusters, edges);
}

NetworkDecomposition random_shift_decomposition(const Graph& g, double beta,
                                                Rng& rng, RoundLedger& ledger,
                                                std::string_view phase,
                                                ThreadPool* pool) {
  DC_REQUIRE(beta > 0.0 && beta < 1.0, "beta must be in (0, 1)");
  const int n = g.num_vertices();
  DC_REQUIRE(n > 0, "decomposition of empty graph");
  const ShiftAssignment assignment = shifted_voronoi(g, beta, rng);
  ledger.charge(assignment.max_shift, phase);

  // Compact cluster ids.
  NetworkDecomposition nd;
  nd.cluster.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> id_map(static_cast<std::size_t>(n), -1);
  int k = 0;
  for (int v = 0; v < n; ++v) {
    const int o = assignment.owner[static_cast<std::size_t>(v)];
    if (id_map[static_cast<std::size_t>(o)] == -1) id_map[static_cast<std::size_t>(o)] = k++;
    nd.cluster[static_cast<std::size_t>(v)] = id_map[static_cast<std::size_t>(o)];
  }

  // Color the cluster graph with (deg+1) randomized trial coloring; one
  // cluster-graph round costs O(D) base rounds (clusters talk via their
  // trees). We charge max_shift per cluster round.
  const Graph cg = build_cluster_graph(g, nd.cluster, k);
  std::vector<int> clusters(static_cast<std::size_t>(k));
  std::iota(clusters.begin(), clusters.end(), 0);
  RoundLedger cluster_ledger;
  cluster_ledger.set_congest_bits(ledger.congest_bits());
  Coloring cc(static_cast<std::size_t>(k), kUncolored);
  const LinialResult lin = linial_coloring(cg, cluster_ledger);
  color_vertex_set_as_list_instance(
      cg, clusters, [&cg](int x) { return cg.degree(x) + 1; }, lin.coloring,
      lin.num_colors, ListEngine::kRandomized, &rng, cc, cluster_ledger,
      phase);
  ledger.charge(cluster_ledger.total() * std::max(1, assignment.max_shift),
                phase);

  nd.cluster_color.assign(cc.begin(), cc.end());
  nd.num_colors = num_colors_used(cc);

  // Weak diameter bookkeeping (measured, for reporting and tests): one
  // full BFS per cluster, fanned out over the pool in indexed chunks. Each
  // chunk reuses one epoch-stamped scratch across its sweeps and folds a
  // chunk-local max; a max is order-free, so the result is thread-count
  // independent.
  const auto sets = nd.cluster_vertex_sets();
  const int num_sets = static_cast<int>(sets.size());
  // Chunk cap = one per executor: each chunk holds O(n) BFS scratch.
  const int max_chunks = pool != nullptr ? pool->num_threads() : 1;
  const int num_chunks =
      pool != nullptr ? pool->num_range_chunks(num_sets, max_chunks) : 1;
  std::vector<int> chunk_max(static_cast<std::size_t>(num_chunks), 0);
  pooled_ranges(
      pool, 0, num_sets,
      [&](int chunk, int lo, int hi) {
        BfsScratch scratch;
        int best = 0;
        for (int ci = lo; ci < hi; ++ci) {
          const auto& set = sets[static_cast<std::size_t>(ci)];
          if (set.empty()) continue;
          scratch.run(g, set.front());
          for (int v : set) {
            DC_ENSURE(scratch.visited(v),
                      "cluster spans disconnected parts of G");
            best = std::max(best, 2 * scratch.dist(v));
          }
        }
        chunk_max[static_cast<std::size_t>(chunk)] = best;
      },
      max_chunks);
  nd.max_diameter = 0;
  for (int c = 0; c < num_chunks; ++c) {
    nd.max_diameter =
        std::max(nd.max_diameter, chunk_max[static_cast<std::size_t>(c)]);
  }
  return nd;
}

bool is_valid_decomposition(const Graph& g, const NetworkDecomposition& nd) {
  if (static_cast<int>(nd.cluster.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int c = nd.cluster[static_cast<std::size_t>(v)];
    if (c < 0 || c >= nd.num_clusters()) return false;
  }
  // Cluster-graph coloring proper?
  for (int v = 0; v < g.num_vertices(); ++v) {
    for (int u : g.neighbors(v)) {
      const int cv = nd.cluster[static_cast<std::size_t>(v)];
      const int cu = nd.cluster[static_cast<std::size_t>(u)];
      if (cv != cu &&
          nd.cluster_color[static_cast<std::size_t>(cv)] ==
              nd.cluster_color[static_cast<std::size_t>(cu)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace deltacol
