#include "coloring/coloring.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "util/check.h"

namespace deltacol {

bool is_proper_partial(const Graph& g, const Coloring& c) {
  if (static_cast<int>(c.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (c[v] == kUncolored) continue;
    for (int u : g.neighbors(v)) {
      if (u > v && c[u] == c[v]) return false;
    }
  }
  return true;
}

bool is_proper_complete(const Graph& g, const Coloring& c) {
  if (!is_proper_partial(g, c)) return false;
  return count_uncolored(c) == 0;
}

bool is_proper_with_palette(const Graph& g, const Coloring& c, int num_colors) {
  if (!is_proper_complete(g, c)) return false;
  for (Color x : c) {
    if (x < 0 || x >= num_colors) return false;
  }
  return true;
}

bool respects_lists(const Coloring& c, const ListAssignment& lists) {
  if (c.size() != lists.size()) return false;
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (c[v] == kUncolored) return false;
    if (!std::binary_search(lists[v].begin(), lists[v].end(), c[v])) return false;
  }
  return true;
}

int count_uncolored(const Coloring& c) {
  int k = 0;
  for (Color x : c) {
    if (x == kUncolored) ++k;
  }
  return k;
}

int num_colors_used(const Coloring& c) {
  Color mx = kUncolored;
  for (Color x : c) mx = std::max(mx, x);
  return mx + 1;
}

void validate_delta_coloring(const Graph& g, const Coloring& c, int delta) {
  DC_REQUIRE(static_cast<int>(c.size()) == g.num_vertices(),
             "coloring size mismatch");
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (c[v] == kUncolored) {
      std::ostringstream os;
      os << "vertex " << v << " is uncolored";
      throw ContractViolation(os.str());
    }
    if (c[v] < 0 || c[v] >= delta) {
      std::ostringstream os;
      os << "vertex " << v << " has color " << c[v] << " outside palette of "
         << delta;
      throw ContractViolation(os.str());
    }
    for (int u : g.neighbors(v)) {
      if (u > v && c[u] == c[v]) {
        std::ostringstream os;
        os << "edge (" << v << ", " << u << ") is monochromatic with color "
           << c[v];
        throw ContractViolation(os.str());
      }
    }
  }
}

std::vector<Color> free_colors(const Graph& g, const Coloring& c, int v,
                               int palette_size) {
  std::vector<bool> used(static_cast<std::size_t>(palette_size), false);
  for (int u : g.neighbors(v)) {
    if (c[u] != kUncolored && c[u] < palette_size) {
      used[static_cast<std::size_t>(c[u])] = true;
    }
  }
  std::vector<Color> out;
  for (int x = 0; x < palette_size; ++x) {
    if (!used[static_cast<std::size_t>(x)]) out.push_back(x);
  }
  return out;
}

std::optional<Color> first_free_color(const Graph& g, const Coloring& c, int v,
                                      int palette_size) {
  // v's neighbors hold at most deg(v) colors, so the smallest free color,
  // if one exists, lies below b: one word of free bits when b <= 64.
  const int b = std::min(palette_size, g.degree(v) + 1);
  if (b <= 0) return std::nullopt;
  if (b <= 64) {
    std::uint64_t free = ~std::uint64_t{0} >> (64 - b);
    for (int u : g.neighbors(v)) {
      if (c[u] != kUncolored && c[u] < b) free &= ~(std::uint64_t{1} << c[u]);
    }
    if (free == 0) return std::nullopt;
    return std::countr_zero(free);
  }
  std::vector<bool> used(static_cast<std::size_t>(b), false);
  for (int u : g.neighbors(v)) {
    if (c[u] != kUncolored && c[u] < b) {
      used[static_cast<std::size_t>(c[u])] = true;
    }
  }
  const auto it = std::find(used.begin(), used.end(), false);
  if (it == used.end()) return std::nullopt;
  return static_cast<Color>(it - used.begin());
}

}  // namespace deltacol
