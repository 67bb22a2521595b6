// Maximal independent set algorithms.
//
// MIS is the engine under every ruling-set computation (Lemma 20): an MIS of
// the power graph G^{k-1} is a (k, k-1)-ruling set of G. We provide Luby's
// randomized algorithm [Lub86/ABI86] and a deterministic variant that sweeps
// the color classes of a symmetry-breaking coloring (the classic
// coloring-to-MIS reduction).
#pragma once

#include <string_view>
#include <vector>

#include "coloring/coloring.h"
#include "graph/graph.h"
#include "local/round_ledger.h"
#include "util/rng.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

// Luby's MIS: each round, active vertices draw random priorities; local
// minima join, neighbors of joiners deactivate. O(log n) rounds w.h.p.
// `rounds_per_step` lets callers running on a simulated power graph charge
// k rounds of the base graph per MIS round. `pool` never changes results.
std::vector<bool> luby_mis(const Graph& g, Rng& rng, RoundLedger& ledger,
                           std::string_view phase, int rounds_per_step = 1,
                           ThreadPool* pool = nullptr);

// Deterministic MIS by sweeping the classes of a proper schedule coloring:
// class-c vertices join if no neighbor joined earlier. num_schedule_colors
// rounds.
std::vector<bool> mis_from_coloring(const Graph& g, const Coloring& schedule,
                                    int num_schedule_colors,
                                    RoundLedger& ledger, std::string_view phase,
                                    int rounds_per_step = 1);

// Test oracle: independent + maximal.
bool is_mis(const Graph& g, const std::vector<bool>& in_set);

}  // namespace deltacol
