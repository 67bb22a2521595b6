#include "runtime/component_scheduler.h"

#include <algorithm>

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
