#include "runtime/mailbox.h"

#include "util/check.h"

namespace deltacol {

Transport::OwnedExchange Transport::exchange_owned(
    std::vector<std::vector<std::uint8_t>> to_peers,
    std::vector<std::int64_t> row_counts, std::vector<std::int64_t> row_bits) {
  (void)to_peers;
  (void)row_counts;
  (void)row_bits;
  DC_REQUIRE(false,
             "exchange_owned: this transport has no wire — the byte "
             "exchange is only meaningful when local_shard() >= 0");
  return {};
}

InProcessTransport::InProcessTransport(int num_shards)
    : num_shards_(num_shards) {
  DC_REQUIRE(num_shards >= 1, "transport needs at least one shard");
}

ShardRuntime::ShardRuntime(const Graph& g, int num_shards, ThreadPool* pool)
    : ShardRuntime(g, num_shards, pool,
                   std::make_unique<InProcessTransport>(
                       VertexPartition::resolve_num_shards(num_shards))) {}

ShardRuntime::ShardRuntime(const Graph& g, int num_shards, ThreadPool* pool,
                           std::unique_ptr<Transport> transport)
    : ShardRuntime(
          g,
          VertexPartition::contiguous(
              g.num_vertices(),
              VertexPartition::resolve_num_shards(num_shards)),
          pool, std::move(transport)) {}

ShardRuntime::ShardRuntime(const Graph& g, VertexPartition part,
                           ThreadPool* /*pool*/,
                           std::unique_ptr<Transport> transport)
    : part_(std::move(part)),
      views_(build_graph_views(g, part_)),
      transport_(transport != nullptr ? std::move(transport)
                                      : std::make_unique<InProcessTransport>(
                                            part_.num_shards())),
      sent_(static_cast<std::size_t>(part_.num_shards()) *
                static_cast<std::size_t>(part_.num_shards()),
            0),
      sent_bits_(sent_.size(), 0) {
  DC_REQUIRE(part_.num_vertices() == g.num_vertices(),
             "partition does not span the graph");
  DC_REQUIRE(transport_->num_shards() == part_.num_shards(),
             "transport shard count disagrees with the partition");
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
