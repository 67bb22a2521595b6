/// \file
/// Round accounting for the LOCAL model.
///
/// Every algorithm in this library runs against a RoundLedger and charges the
/// number of synchronous communication rounds each step would take on a real
/// network. Two execution styles feed the same ledger:
///
///  1. Message-passing style (SyncEngine, runtime/sync_engine.h): each
///     executed round charges 1 (or its CONGEST cost, below).
///  2. Neighborhood-gathering style: in the LOCAL model a t-round algorithm
///     is exactly a function of each node's t-neighborhood, so a step
///     implemented centrally as "every node inspects its r-ball and decides"
///     charges r rounds (plus the rounds of any inner subroutine).
///
/// The ledger keeps a per-phase breakdown so experiments can report where the
/// rounds went (e.g. how much of Theorem 3's cost is the list-coloring
/// substitution discussed in DESIGN.md).
///
/// Thread safety: charge/merge/reset and the scalar reads are internally
/// synchronized, so concurrent phases of the parallel runtime may charge a
/// shared ledger. breakdown() returns a reference and must only be called
/// when no writer is active (the runtime only folds ledgers after its
/// barriers, so this holds by construction). Determinism note: the parallel
/// runtime never charges one ledger from two threads whose order matters —
/// each component job owns a private ledger and the fold is serial — the
/// locking is a safety net for ad-hoc callers, not an ordering mechanism.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace deltacol {

/// Accumulates LOCAL-model communication rounds, tagged by algorithm phase.
/// This is the library's cost model: results are compared by ledger totals,
/// never by wall-clock time.
///
/// **CongestLedger mode.** set_congest_bits(B) with B > 0 switches the
/// ledger from LOCAL (unbounded messages) to CONGEST(B): a synchronous
/// message round whose heaviest directed edge carries `bits` bits is charged
/// ceil(bits / B) sub-rounds — the rounds a B-bit-per-edge network needs to
/// move the same data, with the per-round maximum taken across edges because
/// all edges transfer in parallel. The message engine (runtime/sync_engine.h)
/// carries at most one message per directed edge per round, so an edge's
/// load is the message_bits (net/wire_codec.h) of the one message in its
/// slot. B <= 0 (the default) is the LOCAL model, i.e. B = infinity: every
/// message round charges exactly 1, so LOCAL round counts are recovered
/// exactly. The mode only changes what charge_message_round() records —
/// execution, message delivery, colorings and stats are untouched, which is
/// what makes CONGEST-vs-LOCAL differential testing meaningful
/// (tests/test_congest.cpp).
class RoundLedger {
 public:
  RoundLedger() = default;
  RoundLedger(const RoundLedger& other);
  RoundLedger& operator=(const RoundLedger& other);

  /// Charge \p rounds communication rounds to the named phase.
  void charge(std::int64_t rounds, std::string_view phase);

  /// Enters CONGEST(B) mode (bits > 0) or LOCAL mode (bits <= 0, stored as
  /// 0). Configuration, not a charge: it survives reset() and is copied by
  /// the copy operations, but merge() never propagates it.
  void set_congest_bits(std::int64_t bits);
  /// The B-bit cap; 0 means LOCAL / unbounded.
  std::int64_t congest_bits() const;

  /// Cost of one synchronous message round whose heaviest directed edge
  /// carries \p max_edge_bits: 1 in LOCAL mode, max(1, ceil(bits / B)) in
  /// CONGEST(B) mode (a round is charged even when nothing was sent — the
  /// barrier happened). Monotone non-increasing in B, pinning the round
  /// inflation the differential harness asserts.
  std::int64_t message_round_cost(std::int64_t max_edge_bits) const;

  /// charge(message_round_cost(max_edge_bits) * multiplier, phase):
  /// `multiplier` is the rounds_per_step factor of simulated power-graph /
  /// virtual-graph rounds (see mis/mis.h).
  void charge_message_round(std::int64_t max_edge_bits, std::string_view phase,
                            std::int64_t multiplier = 1);

  /// Total rounds charged so far, across all phases.
  std::int64_t total() const;

  /// One phase's accumulated cost. Phases appear in first-charge order.
  struct PhaseTotal {
    std::string phase;
    std::int64_t rounds;
  };
  /// Unsynchronized view; callers must be quiescent (no concurrent charge).
  const std::vector<PhaseTotal>& breakdown() const { return phases_; }

  /// Rounds charged to \p phase (0 if the phase never charged).
  std::int64_t phase_total(std::string_view phase) const;

  /// Merge another ledger into this one (used when a subroutine ran with its
  /// own ledger, e.g. recursive calls on components; components run in
  /// parallel, so the caller usually charges the max child instead — see
  /// charge_max_component below).
  void merge(const RoundLedger& child);

  /// Human-readable multi-line report.
  std::string report() const;

  /// Drops all charges; the congest mode (configuration) is kept.
  void reset();

 private:
  void charge_locked(std::int64_t rounds, std::string_view phase);

  mutable std::mutex mu_;
  std::int64_t total_ = 0;
  std::int64_t congest_bits_ = 0;  // 0 = LOCAL (unbounded messages)
  std::vector<PhaseTotal> phases_;
};

/// LOCAL-model accounting for parallel component runs: merges into `parent`
/// the child ledger with the largest total (ties broken by lowest index,
/// exactly like the serial max-scan). No-op when `children` is empty.
void charge_max_component(RoundLedger& parent,
                          const std::vector<RoundLedger>& children);

}  // namespace deltacol
