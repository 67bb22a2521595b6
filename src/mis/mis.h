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

// Luby's MIS on the virtual graph whose vertices are `sets` (vertex sets of
// g) and whose edges join two sets that share a vertex or are joined by an
// edge of g (GDCC, dcc/dcc.h), without building it: returns what luby_mis
// returns on that graph, from the same priority draws and with the same
// charges. A set learns the smallest priority in its closed virtual
// neighborhood through its own members, so every iteration is a few sweeps
// over the member vertices.
std::vector<bool> luby_mis_over_sets(const Graph& g,
                                     const std::vector<std::vector<int>>& sets,
                                     Rng& rng, RoundLedger& ledger,
                                     std::string_view phase,
                                     int rounds_per_step = 1,
                                     ThreadPool* pool = nullptr);

// Test oracle: independent + maximal.
bool is_mis(const Graph& g, const std::vector<bool>& in_set);

}  // namespace deltacol
