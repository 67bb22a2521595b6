#include "mis/mis.h"

#include "runtime/thread_pool.h"
#include "util/check.h"

namespace deltacol {

std::vector<bool> luby_mis(const Graph& g, Rng& rng, RoundLedger& ledger,
                           std::string_view phase, int rounds_per_step,
                           ThreadPool* pool) {
  DC_REQUIRE(rounds_per_step >= 1, "rounds_per_step must be >= 1");
  const int n = g.num_vertices();
  std::vector<bool> in_set(static_cast<std::size_t>(n), false);
  std::vector<bool> active(static_cast<std::size_t>(n), true);
  std::vector<std::uint64_t> priority(static_cast<std::size_t>(n));
  std::vector<char> is_min(static_cast<std::size_t>(n), 0);
  int remaining = n;
  while (remaining > 0) {
    // Priority draws stay serial in id order: one shared Rng stream, so the
    // run is identical for every thread count.
    for (int v = 0; v < n; ++v) {
      if (active[static_cast<std::size_t>(v)]) {
        priority[static_cast<std::size_t>(v)] = rng.next_u64();
      }
    }
    // Local minima join the MIS. (Tie-break by id; 64-bit ties are
    // effectively impossible but the break keeps the step deterministic
    // given the drawn priorities.) The scan reads frozen priorities and
    // writes v-private flags: a parallel-for.
    pooled_for(pool, 0, n, [&](int v) {
      is_min[static_cast<std::size_t>(v)] = 0;
      if (!active[static_cast<std::size_t>(v)]) return;
      bool local_min = true;
      for (int u : g.neighbors(v)) {
        if (!active[static_cast<std::size_t>(u)]) continue;
        if (priority[static_cast<std::size_t>(u)] <
                priority[static_cast<std::size_t>(v)] ||
            (priority[static_cast<std::size_t>(u)] ==
                 priority[static_cast<std::size_t>(v)] &&
             u < v)) {
          local_min = false;
          break;
        }
      }
      is_min[static_cast<std::size_t>(v)] = local_min ? 1 : 0;
    });
    std::vector<int> joined;
    for (int v = 0; v < n; ++v) {
      if (is_min[static_cast<std::size_t>(v)]) joined.push_back(v);
    }
    for (int v : joined) {
      in_set[static_cast<std::size_t>(v)] = true;
      active[static_cast<std::size_t>(v)] = false;
      --remaining;
      for (int u : g.neighbors(v)) {
        if (active[static_cast<std::size_t>(u)]) {
          active[static_cast<std::size_t>(u)] = false;
          --remaining;
        }
      }
    }
    // One exchange of priorities (64-bit payloads) + one notification of
    // joiners (1-bit). Under CONGEST(B) each message round is charged by its
    // heaviest edge load (round_ledger.h); in LOCAL both cost 1, recovering
    // the original 2 * rounds_per_step.
    ledger.charge_message_round(64, phase, rounds_per_step);
    ledger.charge_message_round(1, phase, rounds_per_step);
  }
  return in_set;
}

std::vector<bool> mis_from_coloring(const Graph& g, const Coloring& schedule,
                                    int num_schedule_colors,
                                    RoundLedger& ledger, std::string_view phase,
                                    int rounds_per_step) {
  DC_REQUIRE(is_proper_with_palette(g, schedule, num_schedule_colors),
             "schedule must be a proper coloring");
  const int n = g.num_vertices();
  std::vector<bool> in_set(static_cast<std::size_t>(n), false);
  std::vector<bool> blocked(static_cast<std::size_t>(n), false);
  for (int c = 0; c < num_schedule_colors; ++c) {
    for (int v = 0; v < n; ++v) {
      if (schedule[static_cast<std::size_t>(v)] != c) continue;
      if (blocked[static_cast<std::size_t>(v)]) continue;
      in_set[static_cast<std::size_t>(v)] = true;
      for (int u : g.neighbors(v)) blocked[static_cast<std::size_t>(u)] = true;
    }
    // Each schedule step is one 1-bit "I joined" notification round: it
    // always fits any B, so CONGEST charges match LOCAL exactly.
    ledger.charge_message_round(1, phase, rounds_per_step);
  }
  return in_set;
}

bool is_mis(const Graph& g, const std::vector<bool>& in_set) {
  if (static_cast<int>(in_set.size()) != g.num_vertices()) return false;
  for (int v = 0; v < g.num_vertices(); ++v) {
    bool has_set_neighbor = false;
    for (int u : g.neighbors(v)) {
      if (in_set[static_cast<std::size_t>(u)]) has_set_neighbor = true;
    }
    if (in_set[static_cast<std::size_t>(v)] && has_set_neighbor) return false;
    if (!in_set[static_cast<std::size_t>(v)] && !has_set_neighbor) return false;
  }
  return true;
}

}  // namespace deltacol
