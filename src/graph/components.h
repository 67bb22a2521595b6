// Connectivity and biconnectivity (block) decomposition.
//
// Blocks (maximal 2-connected subgraphs, with bridges as K2 blocks) are the
// backbone of the Gallai-tree characterization of non-degree-choosable
// graphs (Theorem 8 of the paper): a graph is a Gallai tree iff every block
// is a clique or an odd cycle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace deltacol {

struct ConnectedComponents {
  std::vector<int> component;  // component id per vertex, dense in [0, count)
  int count = 0;

  std::vector<std::vector<int>> vertex_sets() const;
};
ConnectedComponents connected_components(const Graph& g);

bool is_connected(const Graph& g);

struct BlockDecomposition {
  // Vertex sets of the blocks. A bridge contributes a 2-vertex block; an
  // isolated vertex contributes no block.
  std::vector<std::vector<int>> blocks;
  // True for cut vertices (articulation points).
  std::vector<bool> is_articulation;
};

// Sorted vertex sets of the blocks in for_each_block's closing order; a
// vertex is an articulation point iff it lies in two or more blocks.
BlockDecomposition block_decomposition(const Graph& g);

// State of the lowpoint DFS, grown to the largest graph seen: a caller that
// decomposes many small graphs (the DCC ball kernel, dcc/dcc.cpp) reuses
// one and allocates once.
struct BlockScratch {
  struct Frame {
    int vertex;
    int parent;
    std::size_t next_neighbor;    // index into neighbors(vertex)
    std::int64_t edges_below;     // edge-stack height before the tree edge
    std::size_t vertices_below;   // vertex-stack height before vertex
  };
  std::vector<int> disc, low;
  std::vector<Frame> frames;
  // Vertices whose block has not closed yet, in discovery order (DFS roots
  // are never pushed: they only close blocks as the separating vertex).
  std::vector<int> vertex_stack;
};

// The one biconnectivity DFS: iterative Tarjan/Hopcroft lowpoints, linear
// time, no recursion so deep graphs (long paths) are safe. Calls
// on_block(vertices, num_edges) once per block in closing order; a bridge is
// a 2-vertex block with one edge, an isolated vertex has no block. The
// vertices are unsorted, and the span is valid only during the call.
// num_edges is the block's edge count, i.e. the edge count of the subgraph
// its vertex set induces. on_block returns false to stop the DFS early. G is
// any graph type with num_vertices() and neighbors(v) (e.g. Graph).
//
// The edge stack of the textbook algorithm is kept as its height alone: a
// block's edges are those pushed after its closing tree edge, and its
// vertices other than the separating one are those discovered after the
// tree edge's child.
template <typename G, typename OnBlock>
void for_each_block(const G& g, BlockScratch& s, OnBlock&& on_block) {
  const int n = g.num_vertices();
  s.disc.assign(static_cast<std::size_t>(n), -1);
  s.low.resize(static_cast<std::size_t>(n));
  s.frames.clear();
  s.vertex_stack.clear();
  int timer = 0;
  std::int64_t edges = 0;  // edge-stack height
  for (int root = 0; root < n; ++root) {
    if (s.disc[static_cast<std::size_t>(root)] != -1) continue;
    s.frames.push_back({root, -1, 0, 0, 0});
    s.disc[static_cast<std::size_t>(root)] =
        s.low[static_cast<std::size_t>(root)] = timer++;
    while (!s.frames.empty()) {
      BlockScratch::Frame& f = s.frames.back();
      const int u = f.vertex;
      const auto nb = g.neighbors(u);
      if (f.next_neighbor < nb.size()) {
        const int w = nb[f.next_neighbor++];
        const auto wi = static_cast<std::size_t>(w);
        if (s.disc[wi] == -1) {
          s.frames.push_back({w, u, 0, edges++, s.vertex_stack.size()});
          s.vertex_stack.push_back(w);
          s.disc[wi] = s.low[wi] = timer++;
        } else if (w != f.parent &&
                   s.disc[wi] < s.disc[static_cast<std::size_t>(u)]) {
          // Back edge.
          ++edges;
          auto& low_u = s.low[static_cast<std::size_t>(u)];
          low_u = std::min(low_u, s.disc[wi]);
        }
      } else {
        const BlockScratch::Frame done = f;
        s.frames.pop_back();
        if (s.frames.empty()) continue;
        const int p = s.frames.back().vertex;
        const auto pi = static_cast<std::size_t>(p);
        s.low[pi] = std::min(s.low[pi], s.low[static_cast<std::size_t>(u)]);
        if (s.low[static_cast<std::size_t>(u)] >= s.disc[pi]) {
          // p separates u's subtree: close the block of tree edge (p, u).
          s.vertex_stack.push_back(p);
          const bool go_on = on_block(
              std::span<const int>(s.vertex_stack.data() + done.vertices_below,
                                   s.vertex_stack.size() - done.vertices_below),
              edges - done.edges_below);
          if (!go_on) return;
          s.vertex_stack.resize(done.vertices_below);
          edges = done.edges_below;
        }
      }
    }
  }
  DC_ENSURE(edges == 0 && s.vertex_stack.empty(),
            "unclosed block at end of DFS");
}

}  // namespace deltacol
