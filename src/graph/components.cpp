#include "graph/components.h"

#include <algorithm>

#include "graph/frontier_bfs.h"

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
  BfsScratch bfs;
  for (int s = 0; s < n; ++s) {
    if (cc.component[static_cast<std::size_t>(s)] != -1) continue;
    const int id = cc.count++;
    bfs.run(g, s);
    for (int v : bfs.order()) cc.component[static_cast<std::size_t>(v)] = id;
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
