/// \file
/// Immutable simple undirected graph in CSR (compressed sparse row) layout.
///
/// Vertices are dense integers [0, n). Adjacency lists are sorted, which makes
/// has_edge O(log deg) and set operations over neighborhoods cheap. Graphs in
/// this library are values: algorithms never mutate a Graph, they build new
/// ones (e.g. induced subgraphs) from edge lists via Graph::from_edges.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace deltacol {

/// An undirected edge; orientation is irrelevant (normalized on build).
using Edge = std::pair<int, int>;

/// Immutable simple undirected graph over vertices {0, ..., n-1}.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list by a counting sort into rows, then a
  /// sort of each row. The first self-loop or out-of-range edge in input
  /// order throws via DC_REQUIRE; duplicate edges (in either orientation)
  /// are merged.
  static Graph from_edges(int n, std::span<const Edge> edges);
  static Graph from_edges(int n, const std::vector<Edge>& edges) {
    return from_edges(n, std::span<const Edge>(edges));
  }

  int num_vertices() const { return static_cast<int>(offsets_.size()) - 1; }
  std::int64_t num_edges() const { return static_cast<std::int64_t>(adj_.size()) / 2; }

  int degree(int v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Sorted neighbors of \p v as a zero-copy view into the CSR arrays;
  /// valid for the lifetime of this Graph.
  std::span<const int> neighbors(int v) const {
    return {adj_.data() + offsets_[v],
            static_cast<std::size_t>(degree(v))};
  }

  /// O(log deg(u)) adjacency test.
  bool has_edge(int u, int v) const;

  /// Maximum degree Delta(G); 0 for the empty graph.
  int max_degree() const { return max_degree_; }
  int min_degree() const { return min_degree_; }

  /// All edges with u < v, in sorted order.
  std::vector<Edge> edge_list() const;

 private:
  std::vector<int> offsets_{0};
  std::vector<int> adj_;
  int max_degree_ = 0;
  int min_degree_ = 0;
};

}  // namespace deltacol
