#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

// SplitMix64: the benchmark's own generator, independent of the library's.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t bound) { return next() % bound; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

std::uint64_t key(int u, int v) {
  const auto lo = static_cast<std::uint32_t>(std::min(u, v));
  const auto hi = static_cast<std::uint32_t>(std::max(u, v));
  return (std::uint64_t{lo} << 32) | hi;
}

}  // namespace

EdgeList random_regular(int n, int d, std::uint64_t seed) {
  if (d >= n || (static_cast<std::int64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("infeasible (n, d) for a regular graph");
  }
  SplitMix rng{seed};
  std::vector<int> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  for (int v = 0; v < n; ++v) stubs.insert(stubs.end(), static_cast<std::size_t>(d), v);
  rng.shuffle(stubs);

  EdgeList g;
  g.n = n;
  g.edges.reserve(stubs.size() / 2);
  std::unordered_map<std::uint64_t, int> count;
  count.reserve(stubs.size());
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    const int u = stubs[i], v = stubs[i + 1];
    if (u == v || count[key(u, v)]++ > 0) bad.push_back(g.edges.size());
    g.edges.emplace_back(u, v);
  }
  // Swap a bad edge (a,b) with a random good edge (c,e) into (a,c),(b,e)
  // whenever both new edges are fresh; degrees are preserved.
  const auto good = [&](std::size_t j) {
    const auto [c, e] = g.edges[j];
    return c != e && count[key(c, e)] == 1;
  };
  std::int64_t budget = 1000 * static_cast<std::int64_t>(bad.size()) + 1000;
  while (!bad.empty()) {
    if (--budget < 0) throw std::runtime_error("random_regular: repair stuck");
    const std::size_t i = bad.back();
    const std::size_t j = rng.below(g.edges.size());
    if (i == j || !good(j)) continue;
    const auto [a, b] = g.edges[i];
    const auto [c, e] = g.edges[j];
    if (a == c || b == e || key(a, c) == key(b, e)) continue;
    if (count[key(a, c)] != 0 || count[key(b, e)] != 0) continue;
    --count[key(a, b)];
    --count[key(c, e)];
    ++count[key(a, c)];
    ++count[key(b, e)];
    g.edges[i] = {a, c};
    g.edges[j] = {b, e};
    bad.pop_back();
  }
  return g;
}

EdgeList scrambled_torus(int rows, int cols, std::uint64_t seed) {
  SplitMix rng{seed};
  std::vector<int> id(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  std::iota(id.begin(), id.end(), 0);
  rng.shuffle(id);
  EdgeList g;
  g.n = rows * cols;
  g.edges.reserve(2 * id.size());
  const auto at = [&](int r, int c) {
    return id[static_cast<std::size_t>(((r + rows) % rows) * cols + (c + cols) % cols)];
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      g.edges.emplace_back(at(r, c), at(r, c + 1));
      g.edges.emplace_back(at(r, c), at(r + 1, c));
    }
  }
  return g;
}

void write_edge_list(const EdgeList& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "%d %zu\n", g.n, g.edges.size());
  for (const auto& [u, v] : g.edges) std::fprintf(f, "%d %d\n", u, v);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
