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
  return part;
}

int VertexPartition::resolve_num_shards(int requested) {
  return std::max(1, requested);
}

}  // namespace deltacol
