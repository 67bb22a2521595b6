// Distributed (deg+1)-list coloring — the workhorse subroutine of the
// paper's layering technique (Theorems 18 and 19 are invoked every time a
// layer B_i / C_i / D_i is colored).
//
// Every instance here is palette-shaped: member v of a vertex set may take
// any color of [0, palette(v)) that no G-neighbor holds, i.e. its list is
// the palette minus the colors of its already-colored neighbors.
// color_vertex_set_as_list_instance colors one such instance in place with
// one of two engines (see DESIGN.md "Substitutions"):
//  * kDeterministic — iterates the color classes of a symmetry-breaking
//    schedule coloring (e.g. Linial's O(Delta^2) colors); each member takes
//    its smallest free color. Rounds: one per schedule class. Stands in for
//    [FHK16]+[BEG17].
//  * kRandomized — randomized trial coloring (each uncolored member
//    proposes a random free color, keeps it if no member neighbor proposed
//    the same). O(log n) rounds w.h.p. Stands in for [Gha16].
#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "coloring/coloring.h"
#include "graph/graph.h"
#include "local/round_ledger.h"
#include "util/rng.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

// Which engine completes a (deg+1)-list instance.
enum class ListEngine { kDeterministic, kRandomized };

// The class sweep of every deterministic engine (the list instances below,
// the color reduction): buckets `members` by schedule class (counting
// sort), then for each class s in [0, num_schedule_colors), in order, runs
// pick(v) for its members on the pool and charges one round, empty classes
// too (nobody knows they are empty). Each class must be an independent
// set: picks run concurrently.
void sweep_schedule_classes(std::span<const int> members,
                            const Coloring& schedule, int num_schedule_colors,
                            const std::function<void(int)>& pick,
                            RoundLedger& ledger, std::string_view phase,
                            ThreadPool* pool);

// One (deg+1)-list instance, colored in place: its members are the vertices
// of `vertices` (any order, duplicates merged) uncolored in c, and member v
// takes a color of [0, palette(v)) no G-neighbor holds; other entries of c
// stay. Throws ContractViolation if a vertex is out of range, then if a
// member has no more free colors than member neighbors, then, before a
// schedule sweep, if `schedule` puts a member out of [0, schedule_colors)
// or two adjacent members in one class. The det engine is one sweep in
// which each member takes first_free_color; the randomized engine runs at
// most 4 ceil(log2 k) + 16 trial rounds on k members, drawing from *rng,
// and completes what is left with that sweep, charged to the same phase.
void color_vertex_set_as_list_instance(const Graph& g,
                                       const std::vector<int>& vertices,
                                       const std::function<int(int)>& palette,
                                       const Coloring& schedule,
                                       int schedule_colors, ListEngine engine,
                                       Rng* rng, Coloring& c,
                                       RoundLedger& ledger,
                                       std::string_view phase,
                                       ThreadPool* pool = nullptr);

}  // namespace deltacol
