#include "graph/io.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "util/check.h"

namespace deltacol {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const auto& [u, v] : g.edge_list()) {
    out << u << ' ' << v << '\n';
  }
}

void scan_edge_list(std::istream& in,
                    const std::function<void(int, std::int64_t)>& on_header,
                    const std::function<void(int, int)>& on_edge) {
  std::string line;
  std::int64_t line_no = 0, n = -1, m = -1, seen = 0;
  const auto fail = [&](const char* what) {
    throw ContractViolation("edge list line " + std::to_string(line_no) +
                            ": " + what);
  };
  while (std::getline(in, line)) {
    ++line_no;
    const char* p = line.data();
    const char* const end = p + line.size();
    // Advances past whitespace; true iff it skipped any.
    const auto skip_space = [&] {
      const char* const from = p;
      while (p < end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
      return p != from;
    };
    skip_space();
    if (p == end || line[0] == '#') continue;
    std::int64_t x[2] = {0, 0};
    for (std::int64_t& v : x) {
      const auto [next, ec] = std::from_chars(p, end, v);
      p = next;
      // Each integer ends at whitespace or at the end of the line.
      if (ec != std::errc{} || (!skip_space() && p != end)) {
        fail("expected exactly two integers");
      }
    }
    if (p != end) fail("expected exactly two integers");
    if (n < 0) {
      if (x[0] < 0 || x[0] > std::numeric_limits<int>::max() || x[1] < 0) {
        fail("header counts out of range");
      }
      n = x[0];
      m = x[1];
      on_header(static_cast<int>(n), m);
      continue;
    }
    if (x[0] < 0 || x[0] >= n || x[1] < 0 || x[1] >= n) {
      fail("edge endpoint out of range");
    }
    if (x[0] == x[1]) fail("self-loop");
    ++seen;
    on_edge(static_cast<int>(x[0]), static_cast<int>(x[1]));
  }
  DC_REQUIRE(n >= 0, "edge list missing header");
  DC_REQUIRE(seen == m, "edge count does not match header");
}

Graph read_edge_list(std::istream& in) {
  int n = 0;
  std::vector<Edge> edges;
  scan_edge_list(
      in, [&](int header_n, std::int64_t) { n = header_n; },
      [&](int u, int v) { edges.emplace_back(u, v); });
  return Graph::from_edges(n, edges);
}

void write_dot(std::ostream& out, const Graph& g,
               const std::optional<Coloring>& coloring) {
  static const char* kPalette[] = {"#e6194b", "#3cb44b", "#4363d8", "#ffe119",
                                   "#f58231", "#911eb4", "#46f0f0", "#f032e6"};
  constexpr int kPaletteSize = 8;
  out << "graph G {\n  node [style=filled];\n";
  for (int v = 0; v < g.num_vertices(); ++v) {
    out << "  " << v;
    if (coloring) {
      const Color c = (*coloring)[static_cast<std::size_t>(v)];
      out << " [label=\"" << v << ":" << c << "\"";
      if (c >= 0 && c < kPaletteSize) {
        out << ", fillcolor=\"" << kPalette[c] << "\"";
      }
      out << "]";
    }
    out << ";\n";
  }
  for (const auto& [u, v] : g.edge_list()) {
    out << "  " << u << " -- " << v << ";\n";
  }
  out << "}\n";
}

void save_edge_list(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  DC_REQUIRE(out.good(), "cannot open file for writing: " + path);
  write_edge_list(out, g);
  DC_ENSURE(out.good(), "write failed: " + path);
}

Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  DC_REQUIRE(in.good(), "cannot open file for reading: " + path);
  return read_edge_list(in);
}

}  // namespace deltacol
