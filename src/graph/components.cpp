#include "graph/components.h"

#include <algorithm>
#include <queue>

#include "util/check.h"

namespace deltacol {

std::vector<std::vector<int>> ConnectedComponents::vertex_sets() const {
  std::vector<std::vector<int>> sets(static_cast<std::size_t>(count));
  for (int v = 0; v < static_cast<int>(component.size()); ++v) {
    sets[static_cast<std::size_t>(component[v])].push_back(v);
  }
  return sets;
}

ConnectedComponents connected_components(const Graph& g) {
  ConnectedComponents cc;
  const int n = g.num_vertices();
  cc.component.assign(static_cast<std::size_t>(n), -1);
  for (int s = 0; s < n; ++s) {
    if (cc.component[s] != -1) continue;
    const int id = cc.count++;
    std::queue<int> q;
    cc.component[s] = id;
    q.push(s);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int w : g.neighbors(u)) {
        if (cc.component[w] == -1) {
          cc.component[w] = id;
          q.push(w);
        }
      }
    }
  }
  return cc;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() <= 1) return true;
  return connected_components(g).count == 1;
}

namespace {

// One DFS frame for the iterative lowpoint computation.
struct Frame {
  int vertex;
  int parent;
  std::size_t next_neighbor;  // index into neighbors(vertex)
};

}  // namespace

BlockDecomposition block_decomposition(const Graph& g) {
  const int n = g.num_vertices();
  BlockDecomposition out;
  out.is_articulation.assign(static_cast<std::size_t>(n), false);

  std::vector<int> disc(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), -1);
  std::vector<Edge> edge_stack;
  int timer = 0;

  auto pop_block = [&](int u, int w) {
    // Pop edges up to and including (u, w); their endpoints form one block.
    std::vector<int> verts;
    Edge e;
    do {
      DC_ENSURE(!edge_stack.empty(), "edge stack underflow in block pop");
      e = edge_stack.back();
      edge_stack.pop_back();
      verts.push_back(e.first);
      verts.push_back(e.second);
    } while (!(e.first == u && e.second == w));
    std::sort(verts.begin(), verts.end());
    verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
    out.blocks.push_back(std::move(verts));
  };

  std::vector<Frame> stack;
  for (int root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    int root_children = 0;
    stack.push_back({root, -1, 0});
    disc[root] = low[root] = timer++;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const int u = f.vertex;
      const auto nb = g.neighbors(u);
      if (f.next_neighbor < nb.size()) {
        const int w = nb[f.next_neighbor++];
        if (disc[w] == -1) {
          edge_stack.emplace_back(u, w);
          disc[w] = low[w] = timer++;
          if (u == root) ++root_children;
          stack.push_back({w, u, 0});
        } else if (w != f.parent && disc[w] < disc[u]) {
          // Back edge.
          edge_stack.emplace_back(u, w);
          low[u] = std::min(low[u], disc[w]);
        }
      } else {
        stack.pop_back();
        if (!stack.empty()) {
          const int p = stack.back().vertex;
          low[p] = std::min(low[p], low[u]);
          if (low[u] >= disc[p]) {
            // p separates u's subtree: close the block rooted at edge (p,u).
            // The root's articulation flag is set after the DFS.
            pop_block(p, u);
            if (p != root) out.is_articulation[p] = true;
          }
        }
      }
    }
    if (root_children > 1) out.is_articulation[root] = true;
  }
  DC_ENSURE(edge_stack.empty(), "unclosed block at end of DFS");
  return out;
}

}  // namespace deltacol
