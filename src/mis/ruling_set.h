// (alpha, beta) ruling sets — Lemma 20 of the paper.
//
// An (alpha, beta) ruling set of a vertex subset S within G is M ⊆ S with
// (packing) dist_G(u, v) >= alpha for distinct u, v in M, and (covering)
// dist_G(s, M) <= beta for every s in S.
//
// We realize every Lemma 20 variant through one mechanism: an MIS of the
// auxiliary graph on S with edges between vertices at distance <= alpha-1 in
// G. Maximality makes beta = alpha-1, which dominates (is stronger than) all
// the beta values quoted in Lemma 20, so any caller written against the
// lemma's contract remains correct. One auxiliary-graph round costs alpha-1
// rounds of G (simulating the power graph), which the ledger charges.
// See DESIGN.md "Substitutions" for the round-complexity caveat.
#pragma once

#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "local/round_ledger.h"
#include "util/rng.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

enum class RulingSetEngine {
  // Deterministic default. Rounds are charged as the bitwise ID
  // divide-and-conquer [AGLP89-style] algorithm would cost — (alpha-1) *
  // ceil(log2 |subset|) — while the set itself is computed by greedy
  // distance-alpha packing in ID order (serial, see mis/packing.h),
  // which satisfies a strictly stronger contract (covering alpha-1 instead
  // of (alpha-1) log n) without materializing the power graph (that
  // materialization is quadratic once alpha exceeds the graph diameter).
  kDeterministic,
  // Luby MIS on the auxiliary (power) graph; O(log n) aux rounds w.h.p.
  // Realizes the randomized rows (3)-(4) of Lemma 20.
  kRandomized,
  // Bitwise AGLP divide-and-conquer, run literally on the materialized
  // auxiliary graph. Used by tests to cross-validate kDeterministic's
  // charging model; only for small graphs.
  kDeterministicAglpBitwise,
  // Linial coloring of the auxiliary graph + class sweep; round cost grows
  // with Delta(aux)^2 — only sensible for small auxiliary graphs, kept for
  // cross-validation in tests.
  kDeterministicColorSweep,
};

// Ruling set of `subset` (pass all vertices for a ruling set of G). rng may
// be null for the deterministic engine. `pool` parallelizes the auxiliary
// graph's construction and Luby's scans; results are identical for every
// thread count.
std::vector<int> ruling_set(const Graph& g, const std::vector<int>& subset,
                            int alpha, RulingSetEngine engine, Rng* rng,
                            RoundLedger& ledger, std::string_view phase,
                            ThreadPool* pool = nullptr);

// Covering radius in auxiliary-graph hops guaranteed by each engine: the
// MIS-based engines give 1 (maximality); the bitwise deterministic engine
// gives ceil(log2 |subset|) + 1. In G-hops multiply by (alpha - 1).
int ruling_set_cover_radius(int subset_size, RulingSetEngine engine);

// Test oracle for the (alpha, beta) contract.
bool is_ruling_set(const Graph& g, const std::vector<int>& subset,
                   const std::vector<int>& ruling, int alpha, int beta);

}  // namespace deltacol
