/// \file
/// Level-synchronous BFS engine — the allocation-lean traversal core behind
/// every ball / layering / multi-source query in the library (DESIGN.md §6,
/// ARCHITECTURE.md "Traversal substrate").
///
/// Two ideas, both invisible to callers of the classic traversal.h API:
///
///  1. **Epoch-stamped scratch.** A `BfsScratch` owns the O(n) visitation
///     state once; each query bumps a 32-bit epoch instead of clearing, so a
///     query costs O(ball) — not O(n) — after the first. Results (visit
///     order, level boundaries, distances, nearest-source labels) are views
///     into the scratch, sized to the ball, valid until the next query.
///
///  2. **Chunk-deterministic frontier splitting.** With a `ThreadPool`
///     attached, each level's frontier expands in two phases: chunk c scans
///     its index range of the frontier and records every not-yet-visited
///     neighbor as a candidate in its own fragment (a pure read of the
///     level-start visitation state — no writes, no races); then a serial
///     claim pass replays the fragments in chunk index order. Concatenating
///     fragments in chunk order reproduces the exact edge-scan sequence of
///     the serial loop, so the visit order — including the labeled engine's
///     smaller-source-id tie-break — is bit-identical to the serial engine
///     for every thread count and every chunk partition.
///
/// The predicate-filtered variants take the predicate as a template
/// parameter so the per-edge test inlines (no std::function indirection on
/// the hot path); `traversal.h` keeps a `std::function` wrapper for ABI
/// users. Predicates must be pure functions of the vertex id: the pooled
/// engine evaluates them concurrently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

/// Reusable visitation state for FrontierBfs. One O(n) allocation amortized
/// over arbitrarily many queries (on graphs of any size up to the largest
/// seen); distances/labels of vertices outside the last query's ball are
/// garbage by design — gate every read on visited().
///
/// **Epoch-stamp invariant.** `visited(v)` holds iff `stamp_[v] == epoch_`,
/// and `begin_query` invalidates the previous query by bumping `epoch_`
/// (O(1)) instead of clearing the stamps (O(n)). Consequences callers rely
/// on: (a) `dist`/`source_of`/`level` reads are only meaningful under a true
/// `visited(v)` — everything else is stale data from an arbitrary earlier
/// query; (b) when the 32-bit epoch wraps (once per ~4·10⁹ queries), the
/// stamps are honestly cleared once, so a stale stamp can never alias the
/// live epoch; (c) one scratch may serve graphs of different sizes — the
/// arrays grow to the largest seen and never shrink.
class BfsScratch {
 public:
  // --- results of the last query (views valid until the next query) -------

  /// True iff v was reached by the last query (see the epoch-stamp
  /// invariant above).
  bool visited(int v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }
  /// BFS distance from the nearest source; meaningful iff visited(v).
  int dist(int v) const { return dist_[static_cast<std::size_t>(v)]; }
  /// Nearest source (ties toward the smaller source id); meaningful iff
  /// visited(v) and the query was a labeled multi-source run.
  int source_of(int v) const { return source_[static_cast<std::size_t>(v)]; }

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
  friend class FrontierBfs;

  // Readies the scratch for one query over n vertices: O(n) only when the
  // capacity grows or the 32-bit epoch wraps, O(1) otherwise.
  void begin_query(int n) {
    DC_REQUIRE(n >= 0, "BFS over negative vertex count");
    if (static_cast<int>(stamp_.size()) < n) {
      stamp_.resize(static_cast<std::size_t>(n), 0);
      dist_.resize(static_cast<std::size_t>(n));
      source_.resize(static_cast<std::size_t>(n));
    }
    if (++epoch_ == 0) {  // wrap after ~4e9 queries: one honest O(n) clear
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
    order_.clear();
    level_offsets_.assign(1, 0);
  }

  void claim(int v, int d, int src) {
    stamp_[static_cast<std::size_t>(v)] = epoch_;
    dist_[static_cast<std::size_t>(v)] = d;
    source_[static_cast<std::size_t>(v)] = src;
    order_.push_back(v);
  }

  std::vector<std::uint32_t> stamp_;  // visited(v) <=> stamp_[v] == epoch_
  std::vector<int> dist_;
  std::vector<int> source_;
  std::uint32_t epoch_ = 0;

  std::vector<int> order_;          // visit order of the last query
  std::vector<int> level_offsets_;  // level l = order_[off[l], off[l+1])

  // Pooled engine state, reused across levels and queries: per-chunk
  // next-frontier candidate fragments (vertex, source label) and a sort
  // buffer for labeled seeds.
  std::vector<std::vector<std::pair<int, int>>> fragments_;
  std::vector<int> seed_buf_;
};

/// The engine. Stateless apart from the (optional) pool handle; all query
/// state lives in the caller's BfsScratch, so one engine can serve scratches
/// of different sizes and one scratch can move between engines.
class FrontierBfs {
 public:
  /// With no pool (or one thread) every level runs the serial reference.
  explicit FrontierBfs(ThreadPool* pool = nullptr) : pool_(pool) {}

  ThreadPool* pool() const { return pool_; }

  /// Single-source BFS up to max_dist (< 0: unbounded).
  void run(const Graph& g, BfsScratch& s, int source, int max_dist = -1) {
    const int seed[1] = {source};
    run_impl<false>(g, s, std::span<const int>(seed, 1), max_dist, kAllowAll);
  }

  /// Single-source BFS that may only traverse vertices with allowed(v) true;
  /// the source is always included. `allowed` must be a pure function.
  template <typename Allowed>
  void run_filtered(const Graph& g, BfsScratch& s, int source, int max_dist,
                    Allowed&& allowed) {
    const int seed[1] = {source};
    run_impl<false>(g, s, std::span<const int>(seed, 1), max_dist, allowed);
  }

  /// Unlabeled multi-source BFS (distances only; duplicates in `sources` are
  /// merged). Used by the layering machinery.
  void run_multi(const Graph& g, BfsScratch& s, std::span<const int> sources,
                 int max_dist = -1) {
    run_impl<false>(g, s, sources, max_dist, kAllowAll);
  }

  /// Restricted multi-source BFS: traversal confined to allowed(v) vertices
  /// (sources are always included, mirroring run_filtered).
  template <typename Allowed>
  void run_multi_filtered(const Graph& g, BfsScratch& s,
                          std::span<const int> sources, int max_dist,
                          Allowed&& allowed) {
    run_impl<false>(g, s, sources, max_dist, allowed);
  }

  /// Labeled multi-source BFS: source_of(v) is the nearest source, distance
  /// ties broken toward the smaller source id (the paper's "breaking ties
  /// using identifiers"). Seeds are claimed in ascending id order so the
  /// level-synchronous expansion resolves ties exactly like the classic
  /// FIFO formulation.
  void run_multi_labeled(const Graph& g, BfsScratch& s,
                         std::span<const int> sources, int max_dist = -1) {
    s.seed_buf_.assign(sources.begin(), sources.end());
    std::sort(s.seed_buf_.begin(), s.seed_buf_.end());
    run_impl<true>(
        g, s, std::span<const int>(s.seed_buf_.data(), s.seed_buf_.size()),
        max_dist, kAllowAll);
  }

 private:
  struct AllowAll {
    bool operator()(int) const { return true; }
  };
  static constexpr AllowAll kAllowAll{};
  // Below this frontier size the two-phase pooled expansion costs more than
  // it wins; purely a performance threshold — results are identical either
  // way, so the cutoff is never observable.
  static constexpr int kMinParallelFrontier = 512;

  template <bool kLabeled, typename Allowed>
  void run_impl(const Graph& g, BfsScratch& s, std::span<const int> sources,
                int max_dist, Allowed&& allowed) {
    const int n = g.num_vertices();
    s.begin_query(n);
    for (int v : sources) {
      DC_REQUIRE(0 <= v && v < n, "BFS source out of range");
      if (s.visited(v)) continue;  // duplicate source
      s.claim(v, 0, kLabeled ? v : -1);
    }
    if (s.order_.empty()) {
      s.level_offsets_.clear();  // num_levels() == 0, no trailing sentinel
      s.level_offsets_.push_back(0);
      return;
    }
    s.level_offsets_.push_back(static_cast<int>(s.order_.size()));

    int level = 0;
    int lo = 0;
    int hi = static_cast<int>(s.order_.size());
    while (lo < hi && (max_dist < 0 || level < max_dist)) {
      if (pool_ != nullptr && pool_->num_threads() > 1 &&
          hi - lo >= kMinParallelFrontier) {
        expand_pooled<kLabeled>(g, s, lo, hi, level, allowed);
      } else {
        expand_serial<kLabeled>(g, s, lo, hi, level, allowed);
      }
      lo = hi;
      hi = static_cast<int>(s.order_.size());
      if (hi > lo) s.level_offsets_.push_back(hi);
      ++level;
    }
  }

  // The reference expansion: scan the frontier in visit order, claim
  // first-discovered neighbors, relax same-level source labels.
  template <bool kLabeled, typename Allowed>
  void expand_serial(const Graph& g, BfsScratch& s, int lo, int hi, int level,
                     Allowed&& allowed) {
    for (int idx = lo; idx < hi; ++idx) {
      const int u = s.order_[static_cast<std::size_t>(idx)];
      for (int w : g.neighbors(u)) {
        if (!s.visited(w)) {
          if (!allowed(w)) continue;
          s.claim(w, level + 1,
                  kLabeled ? s.source_[static_cast<std::size_t>(u)] : -1);
        } else if constexpr (kLabeled) {
          // Equal distance through a smaller-id source: prefer it. Only
          // vertices claimed in this very level can satisfy the dist check.
          if (s.dist_[static_cast<std::size_t>(w)] == level + 1 &&
              s.source_[static_cast<std::size_t>(u)] <
                  s.source_[static_cast<std::size_t>(w)]) {
            s.source_[static_cast<std::size_t>(w)] =
                s.source_[static_cast<std::size_t>(u)];
          }
        }
      }
    }
  }

  // Two-phase pooled expansion. Phase A (parallel): each chunk filters its
  // frontier slice's neighbors against the frozen level-start visitation
  // state — reads only, every write lands in the chunk's own fragment.
  // Phase B (serial): replay fragments in chunk index order. The replayed
  // candidate sequence equals the serial edge-scan sequence with the same
  // filter applied, so claims and label relaxations happen in the identical
  // order — bit-identical output for any thread/chunk count.
  template <bool kLabeled, typename Allowed>
  void expand_pooled(const Graph& g, BfsScratch& s, int lo, int hi, int level,
                     Allowed&& allowed) {
    const int num_chunks = pool_->num_range_chunks(hi - lo);
    if (static_cast<int>(s.fragments_.size()) < num_chunks) {
      s.fragments_.resize(static_cast<std::size_t>(num_chunks));
    }
    pool_->parallel_ranges(lo, hi, [&](int chunk, int clo, int chi) {
      auto& frag = s.fragments_[static_cast<std::size_t>(chunk)];
      frag.clear();
      for (int idx = clo; idx < chi; ++idx) {
        const int u = s.order_[static_cast<std::size_t>(idx)];
        const int label =
            kLabeled ? s.source_[static_cast<std::size_t>(u)] : -1;
        for (int w : g.neighbors(u)) {
          if (!s.visited(w) && allowed(w)) frag.emplace_back(w, label);
        }
      }
    });
    for (int chunk = 0; chunk < num_chunks; ++chunk) {
      for (const auto& [w, label] : s.fragments_[static_cast<std::size_t>(chunk)]) {
        if (!s.visited(w)) {
          s.claim(w, level + 1, label);
        } else if constexpr (kLabeled) {
          if (s.dist_[static_cast<std::size_t>(w)] == level + 1 &&
              label < s.source_[static_cast<std::size_t>(w)]) {
            s.source_[static_cast<std::size_t>(w)] = label;
          }
        }
      }
    }
  }

  ThreadPool* pool_ = nullptr;
};

/// Bridges from scratch views back to the classic dense-vector API: the
/// distances of the last query as a vector sized n, `unreachable` for
/// vertices outside the ball.
std::vector<int> dense_distances(const BfsScratch& s, int n,
                                 int unreachable = -1);

/// Minimum eccentricity over all vertices — the graph radius for connected
/// graphs. The per-vertex BFS sweeps fan out over the pool in indexed chunks
/// (serial when pool is null); each chunk reuses one scratch across its
/// sweeps and folds a chunk-local minimum, combined in chunk order (a min is
/// order-free, so any thread count yields the same value).
int min_eccentricity(const Graph& g, ThreadPool* pool = nullptr);

}  // namespace deltacol
