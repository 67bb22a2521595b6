#include "mis/packing.h"

#include <algorithm>

#include "util/check.h"

namespace deltacol {

std::vector<int> greedy_alpha_packing(const Graph& g,
                                      const std::vector<int>& subset,
                                      int alpha) {
  DC_REQUIRE(alpha >= 1, "alpha must be >= 1");
  for (int s : subset) {
    DC_REQUIRE(0 <= s && s < g.num_vertices(), "subset vertex out of range");
  }
  std::vector<int> sorted = subset;
  std::sort(sorted.begin(), sorted.end());
  // A repeat occurrence is at distance 0 from its first pick, so it can
  // never be a second pick (for alpha == 1, duplicates would otherwise
  // violate the pairwise-distance contract).
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (alpha == 1) return sorted;  // distance >= 1: every distinct member
  std::vector<int> dist_to_chosen(static_cast<std::size_t>(g.num_vertices()),
                                  -1);
  std::vector<int> out;
  std::vector<int> q;  // relaxation queue, reused across picks
  for (int v : sorted) {
    if (dist_to_chosen[static_cast<std::size_t>(v)] != -1) continue;
    out.push_back(v);
    // Truncated BFS marking everything within alpha-1 of v. Labels from
    // earlier picks must be RELAXED when v is closer, or the frontier
    // would be cut early and a too-close vertex could be picked later.
    q.assign(1, v);
    dist_to_chosen[static_cast<std::size_t>(v)] = 0;
    for (std::size_t head = 0; head < q.size(); ++head) {
      const int u = q[head];
      if (dist_to_chosen[static_cast<std::size_t>(u)] >= alpha - 1) continue;
      const int next = dist_to_chosen[static_cast<std::size_t>(u)] + 1;
      for (int w : g.neighbors(u)) {
        auto& dw = dist_to_chosen[static_cast<std::size_t>(w)];
        if (dw == -1 || next < dw) {
          dw = next;
          q.push_back(w);
        }
      }
    }
  }
  return out;
}

}  // namespace deltacol
