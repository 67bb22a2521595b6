// Degree-choosable components (Definitions 6-9, Theorem 8).
//
// A DCC is a node-induced subgraph that is 2-connected and neither a clique
// nor an odd cycle. By Theorem 8 [ERT79, Viz76] these are exactly the
// building blocks of degree-choosability: a partial Delta-coloring can
// always be completed inside an uncolored DCC.
//
// Key reduction (proved in DESIGN.md §4): an induced subgraph contains some
// DCC iff it is NOT a Gallai tree, i.e. iff one of its biconnected blocks is
// neither a clique nor an odd cycle. Detection in r-balls therefore costs
// one BFS per ball: a ball with as many edges as vertices - 1 is a tree and
// stops there; any other ball adds one lowpoint DFS over a ball-local CSR,
// whose blocks are tested by their vertex and edge counts (DESIGN.md §4).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/ops.h"
#include "local/round_ledger.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

// Is this whole graph a DCC? (2-connected, not clique, not odd cycle,
// at least 3 vertices.)
bool is_dcc(const Graph& g);

// Vertex sets (in g's ids, each sorted) of all non-Gallai blocks of g, in
// block_decomposition's order. Blocks are judged by their vertex and edge
// counts, so the cost is one DFS plus the sets returned.
std::vector<std::vector<int>> dcc_blocks(const Graph& g);

// Does the r-ball around v contain a DCC (equivalently: is it non-Gallai)?
// Runs is_gallai_tree on the ball's induced subgraph: the slow, independent
// reference that detect_dccs is tested against.
bool ball_contains_dcc(const Graph& g, int v, int r);

// Phase (1) of the randomized algorithms: every node inspects its r-ball; if
// the ball contains a DCC the node selects the one nearest to it (ties by
// smallest vertex set, lexicographically). Returns the deduplicated DCC list
// plus per-node selection. Charges O(r) rounds (one parallel gather).
struct DccDetection {
  // has_dcc[v]: v's r-ball contains a DCC.
  std::vector<bool> has_dcc;
  // selected[v]: index into dccs of the DCC v selected, or -1.
  std::vector<int> selected;
  // Unique selected DCC vertex sets, in g's vertex ids, sorted.
  std::vector<std::vector<int>> dccs;
  // Max radius over selected DCCs (each measured inside its own subgraph);
  // bounds the GDCC simulation overhead.
  int max_dcc_radius = 0;
};
DccDetection detect_dccs(const Graph& g, int r, RoundLedger& ledger,
                         std::string_view phase, ThreadPool* pool = nullptr);

// The virtual graph GDCC: one vertex per DCC; two DCCs are adjacent iff they
// share a vertex or are joined by an edge of g (paper Phase (1)). The
// pipeline never builds it: Phases (2) and (6) run luby_mis_over_sets
// (mis/mis.h) through the members, and luby_mis on this graph is that
// function's test oracle.
Graph build_dcc_virtual_graph(const Graph& g,
                              const std::vector<std::vector<int>>& dccs);

}  // namespace deltacol
