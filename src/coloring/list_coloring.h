// Distributed (deg+1)-list coloring — the workhorse subroutine of the
// paper's layering technique (Theorems 18 and 19 are invoked every time a
// layer B_i / C_i / D_i is colored).
//
// Two engines with the same contract (see DESIGN.md "Substitutions"):
//  * det_list_coloring  — deterministic; iterates the color classes of a
//    symmetry-breaking schedule coloring (e.g. Linial's O(Delta^2) colors).
//    Rounds: one per schedule class. Stands in for [FHK16]+[BEG17].
//  * rand_list_coloring — randomized trial coloring (each uncolored vertex
//    proposes a random feasible list color, keeps it if no neighbor proposed
//    the same). O(log n) rounds w.h.p. Stands in for [Gha16].
//
// Both require, for every vertex, |L(v)| >= (number of neighbors that are
// uncolored on entry) + ... precisely: they succeed whenever at every point
// each uncolored v has more list colors than colored-or-competing neighbors,
// which the (deg+1) precondition guarantees.
#pragma once

#include <functional>
#include <span>
#include <string_view>

#include "coloring/coloring.h"
#include "graph/graph.h"
#include "local/round_ledger.h"
#include "util/rng.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

// Checks |L(v)| >= deg_g(v) + 1 for all v (the instance precondition).
bool lists_have_deg_plus_one(const Graph& g, const ListAssignment& lists);

// The class sweep of every deterministic engine (det_list_coloring, the
// layer instances of core/layering.h, the color reduction): buckets
// `members` by schedule class (counting sort), then for each class s in
// [0, num_schedule_colors), in order, runs pick(v) for its members on the
// pool and charges one round, empty classes too (nobody knows they are
// empty). Each class must be an independent set: picks run concurrently.
void sweep_schedule_classes(std::span<const int> members,
                            const Coloring& schedule, int num_schedule_colors,
                            const std::function<void(int)>& pick,
                            RoundLedger& ledger, std::string_view phase,
                            ThreadPool* pool);

// Colors every vertex with out[v] == kUncolored; already-colored entries are
// fixed and respected. `schedule` must be a proper coloring of g with colors
// in [0, num_schedule_colors).
void det_list_coloring(const Graph& g, const ListAssignment& lists,
                       const Coloring& schedule, int num_schedule_colors,
                       Coloring& out, RoundLedger& ledger,
                       std::string_view phase, ThreadPool* pool = nullptr);

// Randomized variant. Falls back to the deterministic engine after
// ~4 log2(n) + 16 unsuccessful rounds (the w.h.p. bound failed; the fallback
// cost is charged to the same phase, so reported rounds stay honest).
void rand_list_coloring(const Graph& g, const ListAssignment& lists,
                        const Coloring& schedule, int num_schedule_colors,
                        Rng& rng, Coloring& out, RoundLedger& ledger,
                        std::string_view phase, ThreadPool* pool = nullptr);

}  // namespace deltacol
