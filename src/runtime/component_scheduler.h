/// \file
/// Deterministic fan-out of independent per-component runs.
///
/// In a real network, disjoint connected components (and the independent
/// list-coloring instances derived from them) execute concurrently and the
/// LOCAL-model cost of the whole run is the MAXIMUM component cost, not the
/// sum. The serial engine already charges that way; this scheduler makes the
/// wall-clock execution match the model — components run concurrently on a
/// ThreadPool — without touching the accounting:
///
///   * every job gets index-private outputs (its own RoundLedger, its own
///     PhaseStats, a disjoint slice of the global coloring), so execution
///     order cannot leak into results;
///   * all randomness is pre-split on the calling thread in index order, so
///     each job sees the same private stream at any thread count;
///   * results are folded back in index order after the barrier
///     (charge_max_component picks the same winner a serial loop would).
///
/// See DESIGN.md "Runtime" for why this preserves bit-for-bit determinism.
#pragma once

#include <functional>
#include <vector>

#include "local/round_ledger.h"
#include "runtime/thread_pool.h"

namespace deltacol {

class ComponentScheduler {
 public:
  /// `pool` may be nullptr: jobs then run inline, in index order.
  explicit ComponentScheduler(ThreadPool* pool) : pool_(pool) {}

  /// Runs job(0) .. job(count - 1), concurrently when a multi-threaded pool
  /// is attached. Each component is one schedulable unit (components vary
  /// wildly in size; one-chunk-per-job load-balances dynamically). Blocks
  /// until all jobs finished; the lowest-index job's exception is rethrown
  /// (the one a serial loop would have surfaced).
  void run(int count, const std::function<void(int)>& job) const;

  /// Phase-(6)-style fan-out: runs job(i, ledger_i) for every i with an
  /// index-private RoundLedger and returns the maximum child total — the
  /// LOCAL-model cost of independent instances executing concurrently on a
  /// real network (§2 of DESIGN.md). Callers charge the returned value to
  /// their own phase tag; the per-child phase breakdowns are deliberately
  /// discarded (the max is a single network-time figure, not a merge).
  /// Exceptions follow run(): the lowest-index job's is rethrown.
  ///
  /// `congest_bits` propagates the caller's CONGEST(B) mode onto each
  /// index-private child ledger before its job runs (0 = LOCAL) — child
  /// ledgers are created here, so the mode cannot be inherited any other
  /// way, and merge() deliberately never copies configuration.
  std::int64_t run_max_total(
      int count, const std::function<void(int, RoundLedger&)>& job,
      std::int64_t congest_bits = 0) const;

 private:
  ThreadPool* pool_;
};

/// LOCAL-model accounting for parallel component runs: merges into `parent`
/// the child ledger with the largest total (ties broken by lowest index,
/// exactly like the serial max-scan). No-op when `children` is empty.
void charge_max_component(RoundLedger& parent,
                          const std::vector<RoundLedger>& children);

}  // namespace deltacol
