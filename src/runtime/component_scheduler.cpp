#include "runtime/component_scheduler.h"

#include <algorithm>
#include <exception>

#include "runtime/mailbox.h"
#include "util/check.h"

namespace deltacol {

void ComponentScheduler::run(int count,
                             const std::function<void(int)>& job) const {
  if (count <= 0) return;
  if (pool_ == nullptr) {
    for (int i = 0; i < count; ++i) job(i);
    return;
  }
  pool_->parallel_chunks(count, job);
}

std::int64_t ComponentScheduler::run_max_total(
    int count, const std::function<void(int, RoundLedger&)>& job,
    std::int64_t congest_bits) const {
  if (count <= 0) return 0;
  std::vector<RoundLedger> children(static_cast<std::size_t>(count));
  for (auto& child : children) child.set_congest_bits(congest_bits);
  run(count,
      [&](int i) { job(i, children[static_cast<std::size_t>(i)]); });
  std::int64_t best = 0;
  for (const auto& child : children) best = std::max(best, child.total());
  return best;
}

void ComponentScheduler::run_placed(const std::vector<int>& placement,
                                    Transport& transport,
                                    const std::function<void(int)>& job) const {
  const int count = static_cast<int>(placement.size());
  if (count <= 0) return;
  const int num_shards = transport.num_shards();
  if (num_shards <= 1) {
    // One shard owns everything: placement is vacuous, keep the per-job
    // dynamic load balancing of the unplaced path.
    run(count, job);
    return;
  }
  // Group jobs by home shard, preserving ascending index order per shard.
  std::vector<std::vector<int>> by_shard(
      static_cast<std::size_t>(num_shards));
  for (int i = 0; i < count; ++i) {
    const int s = placement[static_cast<std::size_t>(i)];
    DC_REQUIRE(0 <= s && s < num_shards, "job placed on nonexistent shard");
    by_shard[static_cast<std::size_t>(s)].push_back(i);
  }
  // Every job runs; exceptions land in job-indexed slots so the winner is
  // the lowest job index — the same exception a serial loop (and run())
  // would surface, independent of placement and backend scheduling.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
  transport.run_shards([&](int s) {
    for (int i : by_shard[static_cast<std::size_t>(s)]) {
      try {
        job(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  });
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

std::int64_t ComponentScheduler::run_max_total_placed(
    const std::vector<int>& placement, Transport& transport,
    const std::function<void(int, RoundLedger&)>& job,
    std::int64_t congest_bits) const {
  const int count = static_cast<int>(placement.size());
  if (count <= 0) return 0;
  std::vector<RoundLedger> children(static_cast<std::size_t>(count));
  for (auto& child : children) child.set_congest_bits(congest_bits);
  run_placed(placement, transport,
             [&](int i) { job(i, children[static_cast<std::size_t>(i)]); });
  std::int64_t best = 0;
  for (const auto& child : children) best = std::max(best, child.total());
  return best;
}

namespace {

std::vector<int> owner_placement(const VertexPartition& part,
                                 const std::vector<int>& owner_vertex) {
  std::vector<int> placement(owner_vertex.size());
  for (std::size_t i = 0; i < owner_vertex.size(); ++i) {
    placement[i] = part.shard_of(owner_vertex[i]);
  }
  return placement;
}

}  // namespace

void ComponentScheduler::run_owner_placed(
    const VertexPartition& part, const std::vector<int>& owner_vertex,
    const std::function<void(int)>& job) const {
  if (part.num_shards() <= 1) {
    run(static_cast<int>(owner_vertex.size()), job);
    return;
  }
  InProcessTransport transport(part.num_shards(), pool_);
  run_placed(owner_placement(part, owner_vertex), transport, job);
}

std::int64_t ComponentScheduler::run_max_total_owner_placed(
    const VertexPartition& part, const std::vector<int>& owner_vertex,
    const std::function<void(int, RoundLedger&)>& job,
    std::int64_t congest_bits) const {
  if (part.num_shards() <= 1) {
    return run_max_total(static_cast<int>(owner_vertex.size()), job,
                         congest_bits);
  }
  InProcessTransport transport(part.num_shards(), pool_);
  return run_max_total_placed(owner_placement(part, owner_vertex), transport,
                              job, congest_bits);
}

void ComponentScheduler::run_owner_placed(
    int n, int num_shards, const std::vector<int>& owner_vertex,
    const std::function<void(int)>& job) const {
  run_owner_placed(VertexPartition::contiguous(n, std::max(1, num_shards)),
                   owner_vertex, job);
}

std::int64_t ComponentScheduler::run_max_total_owner_placed(
    int n, int num_shards, const std::vector<int>& owner_vertex,
    const std::function<void(int, RoundLedger&)>& job,
    std::int64_t congest_bits) const {
  return run_max_total_owner_placed(
      VertexPartition::contiguous(n, std::max(1, num_shards)), owner_vertex,
      job, congest_bits);
}

void charge_max_component(RoundLedger& parent,
                          const std::vector<RoundLedger>& children) {
  // Strictly-greater scan from 0 in index order: a run whose components all
  // charged nothing merges nothing (matching the serial engine's fold).
  const RoundLedger* best = nullptr;
  std::int64_t best_total = 0;
  for (const auto& child : children) {
    if (child.total() > best_total) {
      best = &child;
      best_total = child.total();
    }
  }
  if (best != nullptr) parent.merge(*best);
}

}  // namespace deltacol
