// Graph serialization: whitespace edge lists (an "n m" header, then one
// "u v" pair per line) and Graphviz DOT output for visual debugging of small
// instances and their colorings.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "coloring/coloring.h"
#include "graph/graph.h"

namespace deltacol {

// Format:
//   n m
//   u1 v1
//   ...
// Lines starting with '#' are comments, blank lines are skipped, and every
// other line holds exactly two base-10 integers. Vertices are 0-based.
void write_edge_list(std::ostream& out, const Graph& g);
Graph read_edge_list(std::istream& in);

// The one parser behind read_edge_list and the per-rank slice loader
// (net/rank_loader.h): on_header(n, m) once, then on_edge(u, v) per edge
// line in file order (duplicates included). A malformed line, a negative or
// oversized count, an endpoint outside [0, n) or a self-loop throws
// ContractViolation naming the 1-based line; so does, at end of input, a
// missing header or an edge count other than m.
void scan_edge_list(std::istream& in,
                    const std::function<void(int, std::int64_t)>& on_header,
                    const std::function<void(int, int)>& on_edge);

// DOT output; when a coloring is given, vertices are filled from a small
// palette (colors beyond the palette get numbered labels only).
void write_dot(std::ostream& out, const Graph& g,
               const std::optional<Coloring>& coloring = std::nullopt);

// Convenience file wrappers (throw ContractViolation on I/O failure).
void save_edge_list(const std::string& path, const Graph& g);
Graph load_edge_list(const std::string& path);

}  // namespace deltacol
