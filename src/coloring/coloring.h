// Vertex colorings and list assignments: the shared vocabulary of every
// algorithm in this library.
//
// Colors are integers >= 0; kUncolored marks an uncolored vertex. A
// Delta-coloring uses colors {0, ..., Delta-1} (the paper writes {1..Delta}).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace deltacol {

using Color = int;
inline constexpr Color kUncolored = -1;

// coloring[v] is the color of vertex v, or kUncolored.
using Coloring = std::vector<Color>;

// lists[v] is the set of colors vertex v may use (sorted, unique).
using ListAssignment = std::vector<std::vector<Color>>;

// No two adjacent *colored* vertices share a color (uncolored ok).
bool is_proper_partial(const Graph& g, const Coloring& c);

// Proper and every vertex colored.
bool is_proper_complete(const Graph& g, const Coloring& c);

// Proper, complete, and every color is in {0, ..., num_colors-1}.
bool is_proper_with_palette(const Graph& g, const Coloring& c, int num_colors);

// Complete proper coloring where every vertex's color is in its list.
bool respects_lists(const Coloring& c, const ListAssignment& lists);

int count_uncolored(const Coloring& c);
int num_colors_used(const Coloring& c);  // max color + 1 over colored vertices

// Throwing validator with a diagnostic message; used by tests and by the
// public API's final check.
void validate_delta_coloring(const Graph& g, const Coloring& c, int delta);

// Colors {0..palette_size-1} not used by any colored neighbor of v.
std::vector<Color> free_colors(const Graph& g, const Coloring& c, int v,
                               int palette_size);

// The smallest free color, or nullopt: one scan of v's neighbors into a
// bitmap of min(palette_size, deg(v) + 1) bits, a single word (no
// allocation) when that is at most 64.
std::optional<Color> first_free_color(const Graph& g, const Coloring& c, int v,
                                      int palette_size);

}  // namespace deltacol
