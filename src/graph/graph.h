/// \file
/// Immutable simple undirected graph in CSR (compressed sparse row) layout,
/// and the one row builder every CSR table in the library comes from.
///
/// Vertices are dense integers [0, n). Adjacency lists are sorted, which makes
/// has_edge O(log deg) and set operations over neighborhoods cheap. Graphs in
/// this library are values: algorithms never mutate a Graph, they build new
/// ones (e.g. induced subgraphs) from edge lists via Graph::from_edges.
/// A Graph's adjacency, a rank's slice (net/rank_loader.h), set memberships
/// and schedule classes are all `Rows` built by `bucket_rows`.
#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

namespace deltacol {

/// An undirected edge; orientation is irrelevant (normalized on build).
using Edge = std::pair<int, int>;

/// Flat CSR rows: row r is targets[offsets[r] .. offsets[r + 1]).
struct Rows {
  std::vector<int> offsets{0};
  std::vector<int> targets;

  int size() const { return static_cast<int>(offsets.size()) - 1; }
  int degree(int r) const { return offsets[r + 1] - offsets[r]; }
  std::span<const int> operator[](int r) const {
    return {targets.data() + offsets[r], static_cast<std::size_t>(degree(r))};
  }
};

/// Stable counting sort of pairs into \p num_rows rows: row r lists the
/// targets of the pairs with row r in emission order. `for_each_pair(emit)`
/// runs twice (count, then scatter) and must call emit(row, target) for the
/// same \p num_pairs pairs each time. Throws ContractViolation if num_pairs
/// does not fit int offsets (a streamed slice is outside input).
template <typename ForEachPair>
Rows bucket_rows(int num_rows, std::size_t num_pairs,
                 const ForEachPair& for_each_pair) {
  DC_REQUIRE(num_pairs <=
                 static_cast<std::size_t>(std::numeric_limits<int>::max()),
             "a row table of " + std::to_string(num_pairs) +
                 " entries does not fit int offsets");
  Rows rows;
  rows.offsets.assign(static_cast<std::size_t>(num_rows) + 1, 0);
  for_each_pair([&](int row, int) {
    ++rows.offsets[static_cast<std::size_t>(row) + 1];
  });
  std::partial_sum(rows.offsets.begin(), rows.offsets.end(),
                   rows.offsets.begin());
  DC_ENSURE(static_cast<std::size_t>(rows.offsets.back()) == num_pairs,
            "bucket_rows: the pairs are not num_pairs long");
  rows.targets.resize(num_pairs);
  std::vector<int> cursor(rows.offsets.begin(), rows.offsets.end() - 1);
  for_each_pair([&](int row, int target) {
    rows.targets[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(row)]++)] = target;
  });
  return rows;
}

/// Sorts every row and drops its duplicates, compacting the rows leftwards.
void sort_unique_rows(Rows& rows);

/// Immutable simple undirected graph over vertices {0, ..., n-1}.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list by bucket_rows and sort_unique_rows.
  /// The first self-loop or out-of-range edge in input order throws via
  /// DC_REQUIRE; duplicate edges (in either orientation) are merged.
  static Graph from_edges(int n, std::span<const Edge> edges);
  static Graph from_edges(int n, const std::vector<Edge>& edges) {
    return from_edges(n, std::span<const Edge>(edges));
  }

  int num_vertices() const { return rows_.size(); }
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(rows_.targets.size()) / 2;
  }

  int degree(int v) const { return rows_.degree(v); }

  /// Sorted neighbors of \p v as a zero-copy view into the CSR arrays;
  /// valid for the lifetime of this Graph.
  std::span<const int> neighbors(int v) const { return rows_[v]; }

  /// O(log deg(u)) adjacency test.
  bool has_edge(int u, int v) const;

  /// Maximum degree Delta(G); 0 for the empty graph.
  int max_degree() const { return max_degree_; }
  int min_degree() const { return min_degree_; }

  /// All edges with u < v, in sorted order.
  std::vector<Edge> edge_list() const;

 private:
  Rows rows_;
  int max_degree_ = 0;
  int min_degree_ = 0;
};

}  // namespace deltacol
