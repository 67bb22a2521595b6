// Constructive coloring of degree-choosable graphs (Theorem 8, [ERT79]).
//
// Given a connected graph and lists with |L(v)| >= deg(v), a proper coloring
// from the lists exists whenever the graph is NOT a Gallai tree — i.e. it is
// (or contains) a degree-choosable component. This is the engine behind
// recoloring DCCs in the distributed Brooks' theorem (Theorem 5) and behind
// coloring the base layer B0 in the paper's Phase (9).
//
// Strategy: (1) if some vertex has slack (|L(v)| > deg(v)) color greedily
// toward it; (2) otherwise apply the Brooks trick — find w with two
// non-adjacent neighbors u1, u2 sharing a list color whose removal keeps the
// graph connected, pre-color them equal, and color greedily toward w;
// (3) fall back to exact backtracking (instances are small blocks).
#pragma once

#include <optional>
#include <span>

#include "coloring/coloring.h"
#include "graph/graph.h"

namespace deltacol {

// Attempts to color the connected graph g from the lists. Returns nullopt
// only if no list coloring exists (e.g. a Gallai tree with tight identical
// lists). For degree-choosable g with |L(v)| >= deg(v), always succeeds.
std::optional<Coloring> degree_choosable_coloring(const Graph& g,
                                                  const ListAssignment& lists);

// Theorem 8 completion of an uncolored vertex set of g that induces a
// connected subgraph (any order, duplicates merged): colors each member
// from its free colors, those of [0, palette) no G-neighbor holds. Returns
// false, leaving c untouched, if degree_choosable_coloring finds none.
bool color_from_free_colors(const Graph& g, std::span<const int> vertices,
                            int palette, Coloring& c);

}  // namespace deltacol
