// Linial's O(Delta^2) coloring in O(log* n) rounds [Lin92].
//
// Both the deterministic Theorem 4 algorithm and the randomized algorithms
// start by computing an O(Delta^2) coloring used purely for symmetry breaking
// (scheduling list-coloring choices); the paper stresses these colors "do in
// no way coincide with the desired Delta-coloring".
//
// Implementation: the classic polynomial / cover-free-family color reduction.
// A proper m-coloring is reinterpreted per vertex as a polynomial of degree
// < d over GF(q) (its base-q digits). With q > Delta*(d-1), every vertex can
// pick an evaluation point x where it differs from all neighbors, giving a
// proper q^2-coloring (pair (x, p(x))) in ONE communication round. Iterating
// reaches O(Delta^2) colors in O(log* m) rounds. Each round extracts every
// vertex's digits once into a flat 16-bit table and evaluates by 32-bit
// Horner: a round runs only while q^2 < m <= max(2, n) < 2^31, so q <= 46,340.
#pragma once

#include "coloring/coloring.h"
#include "graph/graph.h"
#include "local/round_ledger.h"

namespace deltacol {

class ThreadPool;  // src/runtime/thread_pool.h; nullptr = serial

struct LinialResult {
  Coloring coloring;
  int num_colors = 0;  // palette size actually guaranteed (q^2 of last step)
  int rounds = 0;      // communication rounds consumed (also charged to ledger)
};

// Computes a proper coloring with O(Delta^2) colors. IDs are the vertex
// indices (the LOCAL model's unique identifiers).
LinialResult linial_coloring(const Graph& g, RoundLedger& ledger,
                             ThreadPool* pool = nullptr);

// Standard one-color-per-round reduction: from a proper m-coloring to a
// proper (Delta+1)-coloring in m - (Delta+1) rounds (each round the highest
// color class recolors greedily — an independent set, so no conflicts — on
// the shared class sweep of coloring/list_coloring.h).
// Computing this once makes every later schedule sweep cost Delta+1 rounds
// instead of O(Delta^2).
LinialResult reduce_to_delta_plus_one(const Graph& g, const Coloring& start,
                                      int start_colors, RoundLedger& ledger,
                                      ThreadPool* pool = nullptr);

// Convenience: Linial + reduction.
LinialResult delta_plus_one_schedule(const Graph& g, RoundLedger& ledger,
                                     ThreadPool* pool = nullptr);

}  // namespace deltacol
