#include "coloring/list_coloring.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>

#include "graph/ops.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

void sweep_schedule_classes(std::span<const int> members,
                            const Coloring& schedule, int num_schedule_colors,
                            const std::function<void(int)>& pick,
                            RoundLedger& ledger, std::string_view phase,
                            ThreadPool* pool) {
  // Row s is class s, its members in their relative order in `members`.
  const Rows classes =
      bucket_rows(num_schedule_colors, members.size(), [&](const auto& emit) {
        for (int v : members) emit(schedule[static_cast<std::size_t>(v)], v);
      });
  for (int s = 0; s < num_schedule_colors; ++s) {
    pooled_for(pool, classes.offsets[static_cast<std::size_t>(s)],
               classes.offsets[static_cast<std::size_t>(s) + 1], [&](int i) {
                 pick(classes.targets[static_cast<std::size_t>(i)]);
               });
    ledger.charge(1, phase);
  }
}

void color_vertex_set_as_list_instance(const Graph& g,
                                       const std::vector<int>& vertices,
                                       const std::function<int(int)>& palette,
                                       const Coloring& schedule,
                                       int schedule_colors, ListEngine engine,
                                       Rng* rng, Coloring& c,
                                       RoundLedger& ledger,
                                       std::string_view phase,
                                       ThreadPool* pool) {
  // The instance: the uncolored vertices, sorted and de-duplicated. A
  // member's position in `todo` indexes its per-member state.
  const int n = g.num_vertices();
  std::vector<int> todo;
  for (int v : vertices) {
    DC_REQUIRE(0 <= v && v < n, "subgraph vertex out of range");
    if (c[static_cast<std::size_t>(v)] == kUncolored) todo.push_back(v);
  }
  if (todo.empty()) return;
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  const int k = static_cast<int>(todo.size());
  // Member lookups follow induced_subgraph's rule: binary search in todo
  // for an instance small next to g, a dense map of g's size above.
  // with_position(body) calls body(position), where position(w) is w's
  // index in todo, or -1 if w is no member.
  std::vector<int> dense;
  if (static_cast<std::int64_t>(k) * kDenseSubgraphRatio >= n) {
    dense.assign(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < k; ++i) {
      dense[static_cast<std::size_t>(todo[static_cast<std::size_t>(i)])] = i;
    }
  }
  const auto with_position = [&](auto&& body) {
    if (dense.empty()) {
      body([&](int w) {
        const auto it = std::lower_bound(todo.begin(), todo.end(), w);
        return it != todo.end() && *it == w
                   ? static_cast<int>(it - todo.begin())
                   : -1;
      });
    } else {
      body([&](int w) { return dense[static_cast<std::size_t>(w)]; });
    }
  };
  // Both checks in one pass over each member's neighbors.
  std::atomic<bool> short_list{false};  // fewer than deg + 1 free colors
  std::atomic<bool> clash{false};  // a class out of range or not independent
  with_position([&](auto&& position) {
    pooled_for(pool, 0, k, [&](int i) {
      const int v = todo[static_cast<std::size_t>(i)];
      const int p = palette(v);
      const Color sv = schedule[static_cast<std::size_t>(v)];
      int degree = 0;   // in the instance
      int colored = 0;  // neighbors holding a color of [0, p)
      if (sv < 0 || sv >= schedule_colors) clash = true;
      for (int w : g.neighbors(v)) {
        if (position(w) != -1) {
          ++degree;
          if (schedule[static_cast<std::size_t>(w)] == sv) clash = true;
        } else if (c[w] != kUncolored && c[w] < p) {
          ++colored;
        }
      }
      // The colored neighbors hold at most `colored` distinct colors, so
      // only a vertex with colored + degree >= p can lack deg + 1.
      if (colored + degree >= p &&
          static_cast<int>(free_colors(g, c, v, p).size()) < degree + 1) {
        short_list = true;
      }
    });
  });
  DC_ENSURE(!short_list,
            "(deg+1)-list instance '" + std::string(phase) +
                "' is not (deg+1): a member has no more free colors than "
                "member neighbors");
  // The det sweep: each member takes the smallest color of [0, palette(v))
  // no G-neighbor holds, which is the first color of its list (free at the
  // start) that no member colored in an earlier class took. The (deg + 1)
  // check leaves every member one.
  const auto sweep = [&](std::span<const int> members) {
    DC_REQUIRE(!clash, "schedule must be a proper coloring");
    sweep_schedule_classes(
        members, schedule, schedule_colors,
        [&](int v) {
          c[static_cast<std::size_t>(v)] =
              first_free_color(g, c, v, palette(v)).value();
        },
        ledger, phase, pool);
  };
  if (engine == ListEngine::kDeterministic) {
    sweep(todo);
    return;
  }
  DC_REQUIRE(rng != nullptr, "randomized engine needs an Rng");
  std::vector<int> active(static_cast<std::size_t>(k));  // uncolored positions
  std::iota(active.begin(), active.end(), 0);
  with_position([&](auto&& position) {
    const int max_rounds =
        4 * ceil_log2(static_cast<std::uint64_t>(std::max(2, k))) + 16;
    std::vector<Color> proposal(static_cast<std::size_t>(k), kUncolored);
    std::vector<std::vector<Color>> feasible;
    std::vector<char> lost;
    for (int round = 0; round < max_rounds && !active.empty(); ++round) {
      const int num_active = static_cast<int>(active.size());
      feasible.resize(active.size());
      lost.resize(active.size());
      // Free colors: the expensive part, and a pure function of c —
      // computed in parallel. The (deg + 1) check leaves every set
      // non-empty.
      pooled_for(pool, 0, num_active, [&](int j) {
        const int v = todo[static_cast<std::size_t>(
            active[static_cast<std::size_t>(j)])];
        feasible[static_cast<std::size_t>(j)] =
            free_colors(g, c, v, palette(v));
      });
      // Draws stay serial, in member order: the shared Rng stream (and
      // hence the run) is identical for every thread count.
      for (int j = 0; j < num_active; ++j) {
        const auto& feas = feasible[static_cast<std::size_t>(j)];
        proposal[static_cast<std::size_t>(active[static_cast<std::size_t>(j)])] =
            feas[static_cast<std::size_t>(rng->next_below(feas.size()))];
      }
      // Resolve: keep the proposal iff no uncolored member neighbor chose
      // it too. Proposals are frozen, so the test is again a parallel-for.
      pooled_for(pool, 0, num_active, [&](int j) {
        const int i = active[static_cast<std::size_t>(j)];
        const Color mine = proposal[static_cast<std::size_t>(i)];
        bool hit = false;
        for (int w : g.neighbors(todo[static_cast<std::size_t>(i)])) {
          if (c[static_cast<std::size_t>(w)] != kUncolored) continue;
          const int pw = position(w);
          if (pw != -1 && proposal[static_cast<std::size_t>(pw)] == mine) {
            hit = true;
            break;
          }
        }
        lost[static_cast<std::size_t>(j)] = hit ? 1 : 0;
      });
      int kept = 0;
      for (int j = 0; j < num_active; ++j) {
        const int i = active[static_cast<std::size_t>(j)];
        if (lost[static_cast<std::size_t>(j)]) {
          active[static_cast<std::size_t>(kept++)] = i;
        } else {
          c[static_cast<std::size_t>(todo[static_cast<std::size_t>(i)])] =
              proposal[static_cast<std::size_t>(i)];
        }
      }
      active.resize(static_cast<std::size_t>(kept));
      ledger.charge(1, phase);
    }
  });
  if (!active.empty()) {
    // The w.h.p. bound did not materialize at this size/seed; finish
    // deterministically so the caller always gets a complete coloring.
    std::vector<int> rest;
    rest.reserve(active.size());
    for (int i : active) rest.push_back(todo[static_cast<std::size_t>(i)]);
    sweep(rest);
  }
}

}  // namespace deltacol
