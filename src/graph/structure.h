// Structural predicates from the paper's Section 2: cliques, cycles, paths,
// nice graphs, and Gallai trees (Definition 7 / Theorem 8).
#pragma once

#include <span>

#include "graph/graph.h"

namespace deltacol {

// Whole-graph predicates. All treat the graph as-is (they do not look at a
// subset); use ops.h::induced_subgraph to test a vertex subset.
bool is_clique(const Graph& g);       // complete graph on >= 1 vertices
bool is_cycle(const Graph& g);        // connected, every degree exactly 2, n >= 3
bool is_odd_cycle(const Graph& g);
bool is_path(const Graph& g);         // connected, max degree <= 2, not a cycle
// "Nice" per [PS95]: connected and neither a path, a cycle, nor a clique.
// Nice graphs are exactly the connected graphs the paper's algorithms accept.
bool is_nice(const Graph& g);

// A Gallai tree: every block is a clique or an odd cycle (Definition 7).
// By Theorem 8 [ERT79, Viz76], Gallai trees are exactly the graphs that are
// NOT degree-choosable.
bool is_gallai_tree(const Graph& g);

// Does the vertex subset induce a clique in g? G is any graph type with
// has_edge(u, v) (e.g. Graph).
template <typename G>
bool induces_clique(const G& g, std::span<const int> vertices) {
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices.size(); ++j) {
      if (!g.has_edge(vertices[i], vertices[j])) return false;
    }
  }
  return true;
}

}  // namespace deltacol
