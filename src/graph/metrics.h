// Workload characterization metrics: girth, degeneracy and the cross-edge
// fraction of a partition. Used by the experiment harness to describe
// generated graphs and by tests as independent oracles (e.g. girth > 2r+1
// certifies DCC-free r-balls).
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/partition.h"

namespace deltacol {

// Length of the shortest cycle; -1 for forests. O(n * m) BFS-based.
int girth(const Graph& g);

// Degeneracy (the max over the peeling order of the minimum degree) and the
// associated elimination order (smallest-last).
struct DegeneracyResult {
  int degeneracy = 0;
  std::vector<int> order;  // peeling order, lowest-degree-first
};
DegeneracyResult degeneracy(const Graph& g);

// Fraction of undirected edges whose endpoints live on different shards of
// `part` (0 for edgeless graphs or a single shard). This is the static
// locality figure behind the per-round message split that experiments E16
// and E18 measure: under a dense all-neighbors round, cross_fraction of all
// messages — and of all encoded payload bytes — cross a shard boundary.
double cross_edge_fraction(const Graph& g, const VertexPartition& part);

}  // namespace deltacol
