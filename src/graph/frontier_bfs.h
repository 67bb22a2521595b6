/// \file
/// Level-synchronous BFS over reusable scratch — the allocation-lean
/// traversal core behind every ball / layering / multi-source query in the
/// library (DESIGN.md §6, ARCHITECTURE.md "Traversal substrate").
///
/// A `BfsScratch` owns the O(n) visitation state once; each query bumps a
/// 32-bit epoch instead of clearing, so a query costs O(ball) — not O(n) —
/// after the first. Results (visit order, level boundaries, distances) are
/// views into the scratch, sized to the ball, valid until the next query.
///
/// One query is serial. Parallelism lives one level up: callers that issue
/// many independent queries (DCC balls and radii, marking back-off, power
/// graphs) fan them out over the pool with one scratch per chunk.
///
/// The predicate-filtered variants take the predicate as a template
/// parameter so the per-edge test inlines (no std::function indirection on
/// the hot path).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace deltacol {

/// Reusable visitation state plus the BFS queries that fill it. One O(n)
/// allocation amortized over arbitrarily many queries (on graphs of any size
/// up to the largest seen); distances of vertices outside the last query's
/// ball are garbage by design — gate every read on visited().
///
/// **Epoch-stamp invariant.** `visited(v)` holds iff `stamp_[v] == epoch_`,
/// and `begin_query` invalidates the previous query by bumping `epoch_`
/// (O(1)) instead of clearing the stamps (O(n)). Consequences callers rely
/// on: (a) `dist`/`level` reads are only meaningful under a true
/// `visited(v)` — everything else is stale data from an arbitrary earlier
/// query; (b) when the 32-bit epoch wraps (once per ~4·10⁹ queries), the
/// stamps are honestly cleared once, so a stale stamp can never alias the
/// live epoch; (c) one scratch may serve graphs of different sizes — the
/// arrays grow to the largest seen and never shrink.
class BfsScratch {
 public:
  // --- queries -------------------------------------------------------------

  /// Single-source BFS up to max_dist (< 0: unbounded).
  void run(const Graph& g, int source, int max_dist = -1) {
    const int seed[1] = {source};
    run_impl(g, std::span<const int>(seed, 1), max_dist, kAllowAll);
  }

  /// Single-source BFS that may only traverse vertices with allowed(v) true;
  /// the source is always included.
  template <typename Allowed>
  void run_filtered(const Graph& g, int source, int max_dist,
                    Allowed&& allowed) {
    const int seed[1] = {source};
    run_impl(g, std::span<const int>(seed, 1), max_dist, allowed);
  }

  /// Multi-source BFS: the distance to the nearest source (duplicates in
  /// `sources` are merged). Used by the layering machinery.
  void run_multi(const Graph& g, std::span<const int> sources,
                 int max_dist = -1) {
    run_impl(g, sources, max_dist, kAllowAll);
  }

  /// Restricted multi-source BFS: traversal confined to allowed(v) vertices
  /// (sources are always included, mirroring run_filtered).
  template <typename Allowed>
  void run_multi_filtered(const Graph& g, std::span<const int> sources,
                          int max_dist, Allowed&& allowed) {
    run_impl(g, sources, max_dist, allowed);
  }

  // --- results of the last query (views valid until the next query) -------

  /// True iff v was reached by the last query (see the epoch-stamp
  /// invariant above).
  bool visited(int v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }
  /// BFS distance from the nearest source; meaningful iff visited(v).
  int dist(int v) const { return dist_[static_cast<std::size_t>(v)]; }

  /// Every visited vertex in deterministic visit order: sources first (in
  /// claim order), then each level's discoveries in frontier-scan order.
  std::span<const int> order() const { return {order_.data(), order_.size()}; }
  /// Number of non-empty BFS levels (0 for a query with no sources);
  /// eccentricity of the source = num_levels() - 1.
  int num_levels() const {
    return static_cast<int>(level_offsets_.size()) - 1;
  }

  /// The vertices at distance exactly l, as a slice of order().
  std::span<const int> level(int l) const {
    const auto lo = static_cast<std::size_t>(
        level_offsets_[static_cast<std::size_t>(l)]);
    const auto hi = static_cast<std::size_t>(
        level_offsets_[static_cast<std::size_t>(l) + 1]);
    return {order_.data() + lo, hi - lo};
  }

 private:
  struct AllowAll {
    bool operator()(int) const { return true; }
  };
  static constexpr AllowAll kAllowAll{};

  // Readies the scratch for one query over n vertices: O(n) only when the
  // capacity grows or the 32-bit epoch wraps, O(1) otherwise.
  void begin_query(int n) {
    DC_REQUIRE(n >= 0, "BFS over negative vertex count");
    if (static_cast<int>(stamp_.size()) < n) {
      stamp_.resize(static_cast<std::size_t>(n), 0);
      dist_.resize(static_cast<std::size_t>(n));
    }
    if (++epoch_ == 0) {  // wrap after ~4e9 queries: one honest O(n) clear
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
    order_.clear();
    level_offsets_.assign(1, 0);
  }

  void claim(int v, int d) {
    stamp_[static_cast<std::size_t>(v)] = epoch_;
    dist_[static_cast<std::size_t>(v)] = d;
    order_.push_back(v);
  }

  // Level by level: scan the frontier in visit order, claim
  // first-discovered neighbors.
  template <typename Allowed>
  void run_impl(const Graph& g, std::span<const int> sources, int max_dist,
                Allowed&& allowed) {
    const int n = g.num_vertices();
    begin_query(n);
    for (int v : sources) {
      DC_REQUIRE(0 <= v && v < n, "BFS source out of range");
      if (visited(v)) continue;  // duplicate source
      claim(v, 0);
    }
    if (order_.empty()) {
      level_offsets_.clear();  // num_levels() == 0, no trailing sentinel
      level_offsets_.push_back(0);
      return;
    }
    level_offsets_.push_back(static_cast<int>(order_.size()));

    int level = 0;
    int lo = 0;
    int hi = static_cast<int>(order_.size());
    while (lo < hi && (max_dist < 0 || level < max_dist)) {
      for (int idx = lo; idx < hi; ++idx) {
        const int u = order_[static_cast<std::size_t>(idx)];
        for (int w : g.neighbors(u)) {
          if (!visited(w) && allowed(w)) claim(w, level + 1);
        }
      }
      lo = hi;
      hi = static_cast<int>(order_.size());
      if (hi > lo) level_offsets_.push_back(hi);
      ++level;
    }
  }

  std::vector<std::uint32_t> stamp_;  // visited(v) <=> stamp_[v] == epoch_
  std::vector<int> dist_;
  std::uint32_t epoch_ = 0;

  std::vector<int> order_;          // visit order of the last query
  std::vector<int> level_offsets_;  // level l = order_[off[l], off[l+1])
};

}  // namespace deltacol
