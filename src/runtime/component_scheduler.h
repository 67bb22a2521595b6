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

class Transport;        // src/runtime/mailbox.h
class VertexPartition;  // src/graph/partition.h

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

  /// Shard-placed fan-out (the distributed execution shape): job i runs on
  /// its home shard `placement[i]`, shards execute through `transport`
  /// (concurrently under InProcessTransport with a pooled runtime), and a
  /// shard runs its own jobs in ascending index order — exactly what a rank
  /// of a distributed deployment would do with the components it owns.
  ///
  /// Results are identical to run() for any placement because jobs keep the
  /// index-private-output discipline; only wall-clock placement changes.
  /// The exception contract also matches run(): every job executes (a
  /// throwing job cannot cancel siblings) and the lowest-index job's
  /// exception is rethrown after the barrier. transport.num_shards() <= 1
  /// falls back to run()'s per-job dynamic load balancing.
  void run_placed(const std::vector<int>& placement, Transport& transport,
                  const std::function<void(int)>& job) const;

  /// run_max_total with shard placement; see run_placed / run_max_total.
  std::int64_t run_max_total_placed(
      const std::vector<int>& placement, Transport& transport,
      const std::function<void(int, RoundLedger&)>& job,
      std::int64_t congest_bits = 0) const;

  /// The canonical home-shard convenience used by the api-level component
  /// fan-out and the Phase-(6) leftover fan-out: job i is placed on the
  /// shard owning `owner_vertex[i]` under `part` (contiguous or
  /// locality-renumbered — placement is wherever part.shard_of says the
  /// owner lives), executed through an in-process transport over this
  /// scheduler's pool. A single shard falls back to the unplaced
  /// run()/run_max_total().
  void run_owner_placed(const VertexPartition& part,
                        const std::vector<int>& owner_vertex,
                        const std::function<void(int)>& job) const;
  std::int64_t run_max_total_owner_placed(
      const VertexPartition& part, const std::vector<int>& owner_vertex,
      const std::function<void(int, RoundLedger&)>& job,
      std::int64_t congest_bits = 0) const;

  /// Contiguous-partition convenience (the pre-PR-8 signatures).
  void run_owner_placed(int n, int num_shards,
                        const std::vector<int>& owner_vertex,
                        const std::function<void(int)>& job) const;
  std::int64_t run_max_total_owner_placed(
      int n, int num_shards, const std::vector<int>& owner_vertex,
      const std::function<void(int, RoundLedger&)>& job,
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
