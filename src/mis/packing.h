// Greedy distance-alpha packing — the engine behind the default
// deterministic ruling-set engine (Lemma 20, mis/ruling_set.h).
//
// The classic serial greedy: walk the subset in ascending id order and pick
// every vertex at distance >= alpha from all earlier picks. One truncated
// relaxation BFS per pick marks everything within alpha-1 of it, so the
// work is the sum of the picks' balls. It runs serially: at the det
// pipeline's alpha = 2*rho+2 one pick's ball often covers the whole
// component, so computing candidates' balls in parallel would repeat that
// whole-component ball once per candidate.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace deltacol {

// Greedy distance-alpha packing of `subset` in ascending id order: the
// returned vertices (ascending, duplicates in `subset` collapsed) are
// pairwise at distance >= alpha in G, and every skipped subset member is
// within alpha-1 of an earlier (smaller-id) pick.
std::vector<int> greedy_alpha_packing(const Graph& g,
                                      const std::vector<int>& subset,
                                      int alpha);

}  // namespace deltacol
