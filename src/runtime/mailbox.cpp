#include "runtime/mailbox.h"

#include "util/check.h"

namespace deltacol {

ShardRuntime::ShardRuntime(const Graph& g, int num_shards, ThreadPool* pool,
                           std::unique_ptr<SocketTransport> transport)
    : ShardRuntime(
          g,
          VertexPartition::contiguous(
              g.num_vertices(),
              VertexPartition::resolve_num_shards(num_shards)),
          pool, std::move(transport)) {}

ShardRuntime::ShardRuntime(const Graph& g, VertexPartition part,
                           ThreadPool* /*pool*/,
                           std::unique_ptr<SocketTransport> transport)
    : part_(std::move(part)),
      edges_(static_cast<std::size_t>(part_.num_shards()) *
                 static_cast<std::size_t>(part_.num_shards()),
             0),
      transport_(std::move(transport)),
      sent_(edges_.size(), 0),
      sent_bits_(edges_.size(), 0) {
  DC_REQUIRE(part_.num_vertices() == g.num_vertices(),
             "partition does not span the graph");
  DC_REQUIRE(transport_ == nullptr ||
                 transport_->num_shards() == part_.num_shards(),
             "transport shard count disagrees with the partition");
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int src = part_.shard_of(v);
    for (int u : g.neighbors(v)) ++edges_[slot_index(src, part_.shard_of(u))];
  }
}

SocketTransport& ShardRuntime::transport() const {
  DC_REQUIRE(transport_ != nullptr,
             "ShardRuntime::transport: every shard runs in this process, "
             "so there is no transport");
  return *transport_;
}

void ShardRuntime::record_round(
    const std::vector<std::int64_t>& slot_counts,
    const std::vector<std::int64_t>& slot_bit_totals) {
  DC_REQUIRE(slot_counts.size() == sent_.size(),
             "slot count vector has the wrong shape");
  DC_REQUIRE(slot_bit_totals.size() == sent_bits_.size(),
             "slot bit vector has the wrong shape");
  for (std::size_t i = 0; i < sent_.size(); ++i) {
    sent_[i] += slot_counts[i];
    sent_bits_[i] += slot_bit_totals[i];
  }
  ++rounds_;
}

std::int64_t ShardRuntime::total_messages() const {
  std::int64_t total = 0;
  for (std::int64_t c : sent_) total += c;
  return total;
}

std::int64_t ShardRuntime::total_bits() const {
  std::int64_t total = 0;
  for (std::int64_t b : sent_bits_) total += b;
  return total;
}

std::int64_t ShardRuntime::cross_shard_messages() const {
  const int s = num_shards();
  std::int64_t total = 0;
  for (int a = 0; a < s; ++a) {
    for (int b = 0; b < s; ++b) {
      if (a != b) total += slot_messages(a, b);
    }
  }
  return total;
}

std::int64_t ShardRuntime::cross_shard_bits() const {
  const int s = num_shards();
  std::int64_t total = 0;
  for (int a = 0; a < s; ++a) {
    for (int b = 0; b < s; ++b) {
      if (a != b) total += slot_bits(a, b);
    }
  }
  return total;
}

void ShardRuntime::reset_counters() {
  for (auto& c : sent_) c = 0;
  for (auto& b : sent_bits_) b = 0;
  rounds_ = 0;
}

}  // namespace deltacol
