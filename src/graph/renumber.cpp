#include "graph/renumber.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace deltacol {

namespace {

// Ascending-neighbor DFS preorder over the vertices with cluster_of[v] == c,
// starting at seed, appended to out. The cluster is connected (a prefix of a
// BFS visit order), so this reaches every member exactly once.
void cluster_preorder_into(const Graph& g, const std::vector<int>& cluster_of,
                           int c, int seed, std::vector<char>& on_stack,
                           std::vector<int>& stack, std::vector<int>& out) {
  stack.clear();
  stack.push_back(seed);
  on_stack[static_cast<std::size_t>(seed)] = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    out.push_back(v);
    // CSR adjacency ascends; push reversed so the smallest id pops first.
    const auto nbrs = g.neighbors(v);
    for (auto it = nbrs.rbegin(); it != nbrs.rend(); ++it) {
      const int u = *it;
      if (cluster_of[static_cast<std::size_t>(u)] != c) continue;
      if (on_stack[static_cast<std::size_t>(u)]) continue;
      on_stack[static_cast<std::size_t>(u)] = 1;
      stack.push_back(u);
    }
  }
}

}  // namespace

Renumbering identity_renumbering(int n) {
  DC_REQUIRE(n >= 0, "renumbering over negative vertex count");
  auto ident = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n));
  std::iota(ident->begin(), ident->end(), 0);
  Renumbering r;
  r.to_new = ident;
  r.to_old = ident;  // self-inverse
  r.num_clusters = 0;
  return r;
}

Renumbering cluster_renumbering(const Graph& g, int target_cluster_size) {
  const int n = g.num_vertices();
  if (target_cluster_size <= 0) target_cluster_size = std::max(1, n / 64);
  const auto target = static_cast<std::size_t>(target_cluster_size);

  // ---- 1. Grow clusters: lowest unassigned seed, BFS over unassigned
  // vertices until `target` are claimed. The claimed vertices are both the
  // BFS queue and cluster c's members, members[cluster_begin[c],
  // cluster_begin[c + 1]) in growth order, seed first. ---------------------
  std::vector<int> cluster_of(static_cast<std::size_t>(n), -1);
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(n));
  std::vector<std::size_t> cluster_begin;
  for (int seed = 0; seed < n; ++seed) {
    if (cluster_of[static_cast<std::size_t>(seed)] >= 0) continue;
    const int c = static_cast<int>(cluster_begin.size());
    const std::size_t begin = members.size();
    const std::size_t full = begin + target;
    cluster_begin.push_back(begin);
    cluster_of[static_cast<std::size_t>(seed)] = c;
    members.push_back(seed);
    for (std::size_t head = begin;
         head < members.size() && members.size() < full; ++head) {
      for (int u : g.neighbors(members[head])) {
        if (cluster_of[static_cast<std::size_t>(u)] >= 0) continue;
        cluster_of[static_cast<std::size_t>(u)] = c;
        members.push_back(u);
        if (members.size() == full) break;
      }
    }
  }
  const int num_clusters = static_cast<int>(cluster_begin.size());
  cluster_begin.push_back(members.size());

  // ---- 2+3. Linearize: DFS over the cluster quotient (ascending cluster
  // ids, lowest-unvisited restart), emitting each cluster's members in
  // within-cluster DFS preorder. Quotient row c lists the clusters adjacent
  // to c's members, each pushed once (stamped with c), then sorted. ---------
  std::vector<std::vector<int>> quotient(
      static_cast<std::size_t>(num_clusters));
  std::vector<int> stamp(static_cast<std::size_t>(num_clusters), -1);
  for (int c = 0; c < num_clusters; ++c) {
    auto& adj = quotient[static_cast<std::size_t>(c)];
    for (std::size_t i = cluster_begin[static_cast<std::size_t>(c)];
         i < cluster_begin[static_cast<std::size_t>(c) + 1]; ++i) {
      for (int u : g.neighbors(members[i])) {
        const int cu = cluster_of[static_cast<std::size_t>(u)];
        if (cu == c || stamp[static_cast<std::size_t>(cu)] == c) continue;
        stamp[static_cast<std::size_t>(cu)] = c;
        adj.push_back(cu);
      }
    }
    std::sort(adj.begin(), adj.end());
  }

  auto to_old = std::make_shared<std::vector<int>>();
  to_old->reserve(static_cast<std::size_t>(n));
  std::vector<char> cluster_done(static_cast<std::size_t>(num_clusters), 0);
  std::vector<char> on_stack(static_cast<std::size_t>(n), 0);
  std::vector<int> cstack;
  std::vector<int> vstack;
  for (int root = 0; root < num_clusters; ++root) {
    if (cluster_done[static_cast<std::size_t>(root)]) continue;
    cstack.clear();
    cstack.push_back(root);
    cluster_done[static_cast<std::size_t>(root)] = 1;
    while (!cstack.empty()) {
      const int c = cstack.back();
      cstack.pop_back();
      cluster_preorder_into(
          g, cluster_of, c, members[cluster_begin[static_cast<std::size_t>(c)]],
          on_stack, vstack, *to_old);
      const auto& adj = quotient[static_cast<std::size_t>(c)];
      for (auto it = adj.rbegin(); it != adj.rend(); ++it) {
        if (cluster_done[static_cast<std::size_t>(*it)]) continue;
        cluster_done[static_cast<std::size_t>(*it)] = 1;
        cstack.push_back(*it);
      }
    }
  }
  DC_ENSURE(static_cast<int>(to_old->size()) == n,
            "cluster linearization lost vertices");

  auto to_new = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    (*to_new)[static_cast<std::size_t>((*to_old)[static_cast<std::size_t>(p)])] =
        p;
  }
  Renumbering r;
  r.to_new = std::move(to_new);
  r.to_old = std::move(to_old);
  r.num_clusters = num_clusters;
  return r;
}

Graph relabeled_graph(const Graph& g, const Renumbering& renum) {
  const int n = g.num_vertices();
  DC_REQUIRE(renum.num_vertices() == n, "renumbering does not span the graph");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (int v = 0; v < n; ++v) {
    for (int u : g.neighbors(v)) {
      if (v < u) {
        edges.push_back({renum.position_of(v), renum.position_of(u)});
      }
    }
  }
  return Graph::from_edges(n, edges);
}

VertexPartition make_partition(const Graph& g, int num_shards,
                               PartitionStrategy strategy,
                               ThreadPool* /*pool*/) {
  const int resolved = VertexPartition::resolve_num_shards(num_shards);
  if (strategy == PartitionStrategy::kContiguous || resolved <= 1) {
    return VertexPartition::contiguous(g.num_vertices(), resolved);
  }
  const Renumbering renum = cluster_renumbering(g, /*target=*/0);
  return VertexPartition::renumbered(resolved, renum.to_new, renum.to_old);
}

}  // namespace deltacol
