// The distributed Brooks' theorem (Theorem 5, [PS95], reproved in the paper's
// Section 2.3).
//
// Given a Delta-coloring that is complete except for one node v, the coloring
// can be completed by recoloring only inside the (2 log_{Delta-1} n)-
// neighborhood of v. The constructive procedure (proof of Theorem 5):
//
//   * keep a token at the uncolored node; while the token node has no free
//     color, color it with a chosen neighbor's color and move the token
//     there (the coloring stays proper because a node with no free color
//     sees all Delta colors exactly once);
//   * walk the token toward either a node of degree < Delta (which always
//     has a free color) or a degree-choosable component (Lemma 16 guarantees
//     one of the two exists within radius 2 log_{Delta-1} n);
//   * in the DCC case, uncolor the whole component and recolor it from its
//     lists (possible by Theorem 8).
#pragma once

#include <vector>

#include "coloring/coloring.h"
#include "graph/graph.h"

namespace deltacol {

class BfsScratch;   // graph/frontier_bfs.h
class ThreadPool;   // runtime/thread_pool.h; nullptr = serial

struct BrooksFixResult {
  // Max distance from the initially uncolored node of any vertex whose color
  // was changed (the "recoloring radius" measured in experiment E7).
  int radius_used = 0;
  // Which terminal case fired.
  bool used_dcc = false;
  bool used_deficient_node = false;
  // Emergency path: the search radius did not suffice (should not happen
  // when max_radius >= 2 log_{Delta-1} n + 1 on nice graphs) and the whole
  // component was recolored from scratch.
  bool used_component_recolor = false;
  // Set only under defer_emergency: the emergency case was detected and
  // NOTHING was mutated — the caller must finish this fix serially (the
  // component recolor escapes the search ball, so it cannot run while
  // other walks are in flight).
  bool deferred_emergency = false;
};

// Completes the coloring at v0. Preconditions: c proper, complete except
// exactly at v0; delta >= max degree; delta >= 3; v0's component is not a
// clique on delta+1 vertices. Post: c proper and complete, only vertices
// within radius_used of v0 changed.
//
// The walk runs serially here, but it reads colors only within distance
// max_radius + 1 of v0 and writes only within max_radius, so fixes of base
// vertices at pairwise distance >= 2*max_radius + 2 commute and may run
// concurrently — that is what schedule_disjoint_brooks_fixes does. The only
// escape from that locality is the emergency component recolor; passing
// defer_emergency = true makes the emergency case return (untouched
// coloring, deferred_emergency set) instead, so a concurrent caller can
// complete it after its barrier.
//
// The whole-graph ball query runs through `scratch` when the caller passes
// one, so a loop of fixes pays the O(n) visitation state once instead of
// per call. nullptr falls back to a call-local scratch; results are
// identical either way.
BrooksFixResult brooks_fix(const Graph& g, Coloring& c, int v0, int delta,
                           int max_radius, BfsScratch* scratch = nullptr,
                           bool defer_emergency = false);

// Outcome of a scheduled batch of Brooks fixes (index-aligned with the
// input bases).
struct ScheduledBrooksFixes {
  // A base that an earlier emergency recolor of the serial pass had already
  // colored (only possible after a Lemma-27 fallback) is skipped: it gets no
  // fix, its result keeps deferred_emergency set, and num_executed omits it.
  std::vector<BrooksFixResult> results;
  int num_executed = 0;
};

// Schedules the token-walk fixes of `bases` on the pool. REQUIRES pairwise
// distance >= 2*max_radius + 2 between bases (ruling-set construction gives
// exactly this; debug builds assert the resulting radius-max_radius ball
// disjointness) and every base uncolored on entry. Two passes:
//
//  1. Parallel pass: contiguous base ranges fan out as chunks (one
//     BfsScratch each); every fix runs with emergencies deferred, so
//     concurrent walks touch disjoint balls only.
//  2. Serial pass, ascending index: deferred Lemma-27 emergencies complete
//     with the component recolor enabled (a recolor may color later
//     deferred bases — those are skipped, see `results`).
//
// Results are bit-identical for every thread count: the parallel-pass fixes
// commute (disjoint read/write sets) and the serial pass is index-ordered.
ScheduledBrooksFixes schedule_disjoint_brooks_fixes(
    const Graph& g, Coloring& c, const std::vector<int>& bases, int delta,
    int max_radius, ThreadPool* pool);

// The paper's bound 2 log_{Delta-1} n, rounded up, plus slack for the DCC
// diameter; a safe default max_radius for brooks_fix.
int brooks_search_radius(int n, int delta);

}  // namespace deltacol
