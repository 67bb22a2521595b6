// Breadth-first traversal utilities: distances, balls, layered BFS,
// eccentricity and radius.
//
// These are the classic value-returning entry points; each runs one query on
// a fresh graph/frontier_bfs.h scratch. Hot paths that issue many queries
// should hold a BfsScratch and query it directly — that amortizes the O(n)
// visitation state over all queries and returns results sized to the ball,
// not to n.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace deltacol {

inline constexpr int kUnreachable = -1;

// Single-source BFS distances; entries are kUnreachable if not reached within
// max_dist (max_dist < 0 means unbounded).
std::vector<int> bfs_distances(const Graph& g, int source, int max_dist = -1);

// Vertices within distance r of v (including v), in increasing id order.
std::vector<int> ball(const Graph& g, int v, int r);

// BFS layers from v: result[t] lists the vertices at distance exactly t (in
// increasing id order), up to distance r.
std::vector<std::vector<int>> bfs_layers(const Graph& g, int v, int r);

// Eccentricity of v (max distance to any reachable vertex).
int eccentricity(const Graph& g, int v);

// Radius of the graph restricted to one connected component containing any
// vertex: min over component vertices of eccentricity. For whole (connected)
// graphs only; callers pass induced subgraphs.
int graph_radius(const Graph& g);

}  // namespace deltacol
