#include "coloring/list_coloring.h"

#include <algorithm>
#include <numeric>

#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/math_util.h"

namespace deltacol {

bool lists_have_deg_plus_one(const Graph& g, const ListAssignment& lists) {
  if (static_cast<int>(lists.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (static_cast<int>(lists[static_cast<std::size_t>(v)].size()) <
        g.degree(v) + 1) {
      return false;
    }
  }
  return true;
}

namespace {

// First color in v's list not used by a colored neighbor; kUncolored if none.
Color first_feasible(const Graph& g, const ListAssignment& lists,
                     const Coloring& c, int v) {
  for (Color x : lists[static_cast<std::size_t>(v)]) {
    bool ok = true;
    for (int u : g.neighbors(v)) {
      if (c[u] == x) {
        ok = false;
        break;
      }
    }
    if (ok) return x;
  }
  return kUncolored;
}

}  // namespace

void sweep_schedule_classes(std::span<const int> members,
                            const Coloring& schedule, int num_schedule_colors,
                            const std::function<void(int)>& pick,
                            RoundLedger& ledger, std::string_view phase,
                            ThreadPool* pool) {
  const auto class_of = [&](int v) {
    return static_cast<std::size_t>(schedule[static_cast<std::size_t>(v)]);
  };
  // Class s is order[begin[s] .. begin[s + 1]), its members in their
  // relative order in `members`.
  std::vector<int> begin(static_cast<std::size_t>(num_schedule_colors) + 1, 0);
  for (int v : members) ++begin[class_of(v) + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<int> order(members.size());
  std::vector<int> fill(begin.begin(), begin.end() - 1);
  for (int v : members) {
    order[static_cast<std::size_t>(fill[class_of(v)]++)] = v;
  }
  for (int s = 0; s < num_schedule_colors; ++s) {
    pooled_for(pool, begin[static_cast<std::size_t>(s)],
               begin[static_cast<std::size_t>(s) + 1],
               [&](int i) { pick(order[static_cast<std::size_t>(i)]); });
    ledger.charge(1, phase);
  }
}

void det_list_coloring(const Graph& g, const ListAssignment& lists,
                       const Coloring& schedule, int num_schedule_colors,
                       Coloring& out, RoundLedger& ledger,
                       std::string_view phase, ThreadPool* pool) {
  DC_REQUIRE(static_cast<int>(out.size()) == g.num_vertices(),
             "output coloring size mismatch");
  DC_REQUIRE(is_proper_with_palette(g, schedule, num_schedule_colors),
             "schedule must be a proper coloring");
  std::vector<int> members;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (out[static_cast<std::size_t>(v)] == kUncolored) members.push_back(v);
  }
  sweep_schedule_classes(
      members, schedule, num_schedule_colors,
      [&](int v) {
        const Color x = first_feasible(g, lists, out, v);
        DC_ENSURE(x != kUncolored,
                  "det_list_coloring: vertex ran out of list colors (instance "
                  "violated the deg+1 precondition)");
        out[static_cast<std::size_t>(v)] = x;
      },
      ledger, phase, pool);
}

void rand_list_coloring(const Graph& g, const ListAssignment& lists,
                        const Coloring& schedule, int num_schedule_colors,
                        Rng& rng, Coloring& out, RoundLedger& ledger,
                        std::string_view phase, ThreadPool* pool) {
  DC_REQUIRE(static_cast<int>(out.size()) == g.num_vertices(),
             "output coloring size mismatch");
  const int n = g.num_vertices();
  std::vector<int> active;
  for (int v = 0; v < n; ++v) {
    if (out[static_cast<std::size_t>(v)] == kUncolored) active.push_back(v);
  }
  const int max_rounds =
      4 * ceil_log2(static_cast<std::uint64_t>(std::max(2, n))) + 16;
  std::vector<Color> proposal(static_cast<std::size_t>(n), kUncolored);
  std::vector<std::vector<Color>> feasible(active.size());
  std::vector<char> clash(active.size());
  for (int round = 0; round < max_rounds && !active.empty(); ++round) {
    const int num_active = static_cast<int>(active.size());
    feasible.resize(active.size());
    clash.resize(active.size());
    // Feasible sets: the expensive part, and a pure function of `out` —
    // computed in parallel.
    pooled_for(pool, 0, num_active, [&](int i) {
      const int v = active[static_cast<std::size_t>(i)];
      auto& feas = feasible[static_cast<std::size_t>(i)];
      feas.clear();
      for (Color x : lists[static_cast<std::size_t>(v)]) {
        bool ok = true;
        for (int u : g.neighbors(v)) {
          if (out[static_cast<std::size_t>(u)] == x) {
            ok = false;
            break;
          }
        }
        if (ok) feas.push_back(x);
      }
      DC_ENSURE(!feas.empty(),
                "rand_list_coloring: empty feasible set (instance violated "
                "the deg+1 precondition)");
    });
    // Draws stay serial, in active order: the shared Rng stream (and hence
    // the run) is identical for every thread count.
    for (int i = 0; i < num_active; ++i) {
      const auto& feas = feasible[static_cast<std::size_t>(i)];
      proposal[static_cast<std::size_t>(active[static_cast<std::size_t>(i)])] =
          feas[static_cast<std::size_t>(rng.next_below(feas.size()))];
    }
    // Resolve: keep the proposal iff no competing neighbor chose it too.
    // Proposals are frozen, so the clash test is again a parallel-for.
    pooled_for(pool, 0, num_active, [&](int i) {
      const int v = active[static_cast<std::size_t>(i)];
      const Color mine = proposal[static_cast<std::size_t>(v)];
      bool c = false;
      for (int u : g.neighbors(v)) {
        if (out[static_cast<std::size_t>(u)] == kUncolored &&
            proposal[static_cast<std::size_t>(u)] == mine) {
          c = true;
          break;
        }
      }
      clash[static_cast<std::size_t>(i)] = c ? 1 : 0;
    });
    std::vector<int> still_active;
    for (int i = 0; i < num_active; ++i) {
      const int v = active[static_cast<std::size_t>(i)];
      if (clash[static_cast<std::size_t>(i)]) {
        still_active.push_back(v);
      } else {
        out[static_cast<std::size_t>(v)] =
            proposal[static_cast<std::size_t>(v)];
      }
      proposal[static_cast<std::size_t>(v)] = kUncolored;
    }
    active = std::move(still_active);
    ledger.charge(1, phase);
  }
  if (!active.empty()) {
    // The w.h.p. bound did not materialize at this size/seed; finish
    // deterministically so the caller always gets a complete coloring.
    det_list_coloring(g, lists, schedule, num_schedule_colors, out, ledger,
                      phase, pool);
  }
}

}  // namespace deltacol
