#include "graph/components.h"

#include <algorithm>
#include <queue>

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

BlockDecomposition block_decomposition(const Graph& g) {
  BlockDecomposition out;
  std::vector<int> blocks_of(static_cast<std::size_t>(g.num_vertices()), 0);
  BlockScratch scratch;
  for_each_block(g, scratch, [&](std::span<const int> block, std::int64_t) {
    std::vector<int> verts(block.begin(), block.end());
    std::sort(verts.begin(), verts.end());
    for (int v : verts) ++blocks_of[static_cast<std::size_t>(v)];
    out.blocks.push_back(std::move(verts));
    return true;
  });
  out.is_articulation.reserve(blocks_of.size());
  for (int count : blocks_of) out.is_articulation.push_back(count >= 2);
  return out;
}

}  // namespace deltacol
