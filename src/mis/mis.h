// Maximal independent set algorithms.
//
// MIS is the engine under every ruling-set computation (Lemma 20): an MIS of
// the power graph G^{k-1} is a (k, k-1)-ruling set of G. We provide Luby's
// randomized algorithm [Lub86/ABI86].
#pragma once

#include <string_view>
#include <vector>

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

// Test oracle: independent + maximal.
bool is_mis(const Graph& g, const std::vector<bool>& in_set);

}  // namespace deltacol
