// Graph-valued operations: induced subgraphs (with vertex maps), vertex
// deletion, and power graphs G^k (used to run MIS-based ruling sets at
// distance, Lemma 20).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

// An induced subgraph together with the mapping between its dense vertex ids
// and the parent graph's ids. Subgraph ids follow the parent's order, so the
// map back is a binary search and costs no memory the size of the parent.
struct Subgraph {
  Graph graph;
  std::vector<int> to_parent;  // subgraph id -> parent id, ascending

  // Subgraph id of parent vertex `parent`, or -1 if it is not a member.
  int local_id(int parent) const;
};

// A vertex set S of g (induced_subgraph, core/layering.h's instances) looks
// up membership by binary search while |S| * kDenseSubgraphRatio < n, in a
// dense map of g's size above. On random 8-regular n = 200k (4 vCPUs) the
// two cross near |S| = n/2000: binary search takes 1.6 against 28 us at
// |S| = 4, and 0.84 against 0.33 ms at |S| = 1024.
inline constexpr std::int64_t kDenseSubgraphRatio = 1024;

// The subgraph induced by `vertices` (any order, duplicates merged). A set
// that is small next to g costs O(|S| log |S|) plus its adjacency scan:
// neighbors are looked up by binary search in to_parent. A larger set pays
// one dense id map of g's size instead, and the whole vertex set is a copy
// of g's CSR.
Subgraph induced_subgraph(const Graph& g, std::span<const int> vertices);
inline Subgraph induced_subgraph(const Graph& g, const std::vector<int>& v) {
  return induced_subgraph(g, std::span<const int>(v));
}

// G with a vertex subset removed (keeps ids of the remaining vertices dense;
// returns the mapping like induced_subgraph).
Subgraph remove_vertices(const Graph& g, std::span<const int> removed);

// The k-th power restricted to `subset`: vertex i stands for subset[i], and
// i ~ j iff 1 <= dist_G(subset[i], subset[j]) <= k (distances in all of g).
// Pass every vertex for G^k itself. Computed by one truncated BFS per subset
// vertex, fanned out over the pool when one is attached (per-chunk scratch
// reuse; the result is thread-count independent).
Graph power_graph(const Graph& g, std::span<const int> subset, int k,
                  ThreadPool* pool = nullptr);

// Disjoint union of two graphs (vertices of b are shifted by a.num_vertices()).
Graph disjoint_union(const Graph& a, const Graph& b);

}  // namespace deltacol
