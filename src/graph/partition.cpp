#include "graph/partition.h"

#include <algorithm>

#include "util/check.h"

namespace deltacol {

const char* partition_strategy_name(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kContiguous:
      return "contiguous";
    case PartitionStrategy::kCluster:
      return "cluster";
  }
  DC_REQUIRE(false, "unknown partition strategy");
  return "contiguous";
}

bool parse_partition_strategy(const std::string& name,
                              PartitionStrategy* out) {
  if (name == "contiguous") {
    *out = PartitionStrategy::kContiguous;
    return true;
  }
  if (name == "cluster") {
    *out = PartitionStrategy::kCluster;
    return true;
  }
  return false;
}

VertexPartition VertexPartition::contiguous(int n, int num_shards) {
  DC_REQUIRE(n >= 0, "partition over negative vertex count");
  DC_REQUIRE(num_shards >= 1, "partition needs at least one shard");
  VertexPartition p;
  p.n_ = n;
  p.num_shards_ = num_shards;
  return p;
}

VertexPartition VertexPartition::renumbered(
    int num_shards, std::shared_ptr<const std::vector<int>> to_new,
    std::shared_ptr<const std::vector<int>> to_old) {
  DC_REQUIRE(num_shards >= 1, "partition needs at least one shard");
  DC_REQUIRE(to_new != nullptr && to_old != nullptr,
             "renumbered partition needs both permutation tables");
  DC_REQUIRE(to_new->size() == to_old->size(),
             "permutation tables disagree on n");
  const int n = static_cast<int>(to_new->size());
  for (int v = 0; v < n; ++v) {
    const int p = (*to_new)[static_cast<std::size_t>(v)];
    DC_REQUIRE(0 <= p && p < n, "renumbering position out of range");
    DC_REQUIRE((*to_old)[static_cast<std::size_t>(p)] == v,
               "renumbering is not a bijection");
  }
  // One shard owns everything regardless of layout: keep the cheap
  // contiguous representation (identity position map) so S=1 stays the
  // exact serial baseline.
  if (num_shards == 1) return contiguous(n, 1);
  VertexPartition part = contiguous(n, num_shards);
  part.to_new_ = std::move(to_new);
  part.to_old_ = std::move(to_old);
  auto owned = std::make_shared<std::vector<std::vector<int>>>(
      static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    (*owned)[static_cast<std::size_t>(s)].reserve(
        static_cast<std::size_t>(part.size(s)));
  }
  // Owned ids ascend in *original* id: owned_vertex(s, i) enumerates a
  // shard in id order under every layout (GraphView, gather_colors).
  for (int v = 0; v < n; ++v) {
    (*owned)[static_cast<std::size_t>(part.shard_of(v))].push_back(v);
  }
  part.owned_ = std::move(owned);
  return part;
}

int VertexPartition::resolve_num_shards(int requested) {
  return std::max(1, requested);
}

GraphView::GraphView(const Graph& g, const VertexPartition& part, int shard)
    : g_(&g), part_(part), shard_(shard) {
  DC_REQUIRE(part.num_vertices() == g.num_vertices(),
             "partition does not span the graph");
  DC_REQUIRE(0 <= shard && shard < part.num_shards(), "shard out of range");
  lo_ = part.begin(shard);
  hi_ = part.end(shard);
  cross_.assign(static_cast<std::size_t>(part.num_shards()), 0);
  std::vector<char> in_halo(static_cast<std::size_t>(g.num_vertices()), 0);
  for (int i = 0; i < part.size(shard); ++i) {
    const int v = part.owned_vertex(shard, i);
    for (int u : g.neighbors(v)) {
      if (owns(u)) {
        // Counted once per undirected internal edge (from its smaller end).
        if (v < u) ++internal_edges_;
      } else {
        // Each halo vertex is pushed once, at its first cut edge.
        if (!in_halo[static_cast<std::size_t>(u)]) {
          in_halo[static_cast<std::size_t>(u)] = 1;
          halo_.push_back(u);
        }
        ++cross_[static_cast<std::size_t>(part.shard_of(u))];
      }
    }
  }
  std::sort(halo_.begin(), halo_.end());
}

std::vector<GraphView> build_graph_views(const Graph& g,
                                         const VertexPartition& part) {
  std::vector<GraphView> views;
  views.reserve(static_cast<std::size_t>(part.num_shards()));
  for (int s = 0; s < part.num_shards(); ++s) views.emplace_back(g, part, s);
  return views;
}

}  // namespace deltacol
