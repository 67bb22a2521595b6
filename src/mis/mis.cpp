#include "mis/mis.h"

#include <algorithm>
#include <cstdint>

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

std::vector<bool> luby_mis_over_sets(const Graph& g,
                                     const std::vector<std::vector<int>>& sets,
                                     Rng& rng, RoundLedger& ledger,
                                     std::string_view phase,
                                     int rounds_per_step, ThreadPool* pool) {
  DC_REQUIRE(rounds_per_step >= 1, "rounds_per_step must be >= 1");
  const int n = g.num_vertices();
  const int k = static_cast<int>(sets.size());
  // Row v: the indices of the sets containing v, ascending.
  std::size_t num_pairs = 0;
  for (const auto& set : sets) num_pairs += set.size();
  const Rows sets_of = bucket_rows(n, num_pairs, [&](const auto& emit) {
    for (int i = 0; i < k; ++i) {
      for (int v : sets[static_cast<std::size_t>(i)]) {
        DC_REQUIRE(0 <= v && v < n, "set member out of range");
        emit(v, i);
      }
    }
  });
  std::vector<int> members;  // vertices in some set, ascending
  for (int v = 0; v < n; ++v) {
    if (sets_of.degree(v) > 0) members.push_back(v);
  }

  std::vector<bool> in_set(static_cast<std::size_t>(k), false);
  std::vector<char> active(static_cast<std::size_t>(k), 1);
  std::vector<int> live(static_cast<std::size_t>(k));  // active sets, ascending
  for (int i = 0; i < k; ++i) live[static_cast<std::size_t>(i)] = i;
  std::vector<std::uint64_t> priority(static_cast<std::size_t>(k));
  std::vector<char> joins(static_cast<std::size_t>(k), 0);
  // Per vertex: the smallest active set containing it (-1: none), the
  // smallest one over its closed neighborhood, and whether a joining set
  // lies in that neighborhood. Only members ever hold anything but -1 / 0.
  std::vector<int> own_min(static_cast<std::size_t>(n), -1);
  std::vector<int> closed_min(static_cast<std::size_t>(n), -1);
  std::vector<char> covered(static_cast<std::size_t>(n), 0);
  // (priority, index) order, -1 last.
  const auto precedes = [&](int a, int b) {
    if (a == -1) return false;
    if (b == -1) return true;
    const auto pa = priority[static_cast<std::size_t>(a)];
    const auto pb = priority[static_cast<std::size_t>(b)];
    return pa < pb || (pa == pb && a < b);
  };
  const int num_members = static_cast<int>(members.size());
  while (!live.empty()) {
    // Priority draws stay serial in index order, as in luby_mis.
    for (int i : live) priority[static_cast<std::size_t>(i)] = rng.next_u64();
    // Each sweep reads what the previous one wrote and writes only its own
    // vertex's or set's slot: parallel-fors.
    pooled_for(pool, 0, num_members, [&](int m) {
      const int v = members[static_cast<std::size_t>(m)];
      int best = -1;
      for (int i : sets_of[v]) {
        if (active[static_cast<std::size_t>(i)] && precedes(i, best)) best = i;
      }
      own_min[static_cast<std::size_t>(v)] = best;
    });
    pooled_for(pool, 0, num_members, [&](int m) {
      const int v = members[static_cast<std::size_t>(m)];
      int best = own_min[static_cast<std::size_t>(v)];
      if (best == -1) return;  // in no active set: nobody reads v
      for (int u : g.neighbors(v)) {
        const int other = own_min[static_cast<std::size_t>(u)];
        if (precedes(other, best)) best = other;
      }
      closed_min[static_cast<std::size_t>(v)] = best;
    });
    // A set joins iff it is the minimum of every member's closed
    // neighborhood, i.e. of its closed neighborhood in the virtual graph.
    pooled_for(pool, 0, static_cast<int>(live.size()), [&](int l) {
      const int i = live[static_cast<std::size_t>(l)];
      bool local_min = true;
      for (int v : sets[static_cast<std::size_t>(i)]) {
        if (closed_min[static_cast<std::size_t>(v)] != i) {
          local_min = false;
          break;
        }
      }
      joins[static_cast<std::size_t>(i)] = local_min ? 1 : 0;
    });
    // A member of a joining set has that set as its own minimum (the sets
    // sharing it are its virtual neighbors), so own_min finds them.
    const auto joining = [&](int u) {
      const int i = own_min[static_cast<std::size_t>(u)];
      return i != -1 && joins[static_cast<std::size_t>(i)] != 0;
    };
    pooled_for(pool, 0, num_members, [&](int m) {
      const int v = members[static_cast<std::size_t>(m)];
      if (own_min[static_cast<std::size_t>(v)] == -1) return;
      bool near = joining(v);
      for (int u : g.neighbors(v)) {
        if (near) break;
        near = joining(u);
      }
      covered[static_cast<std::size_t>(v)] = near ? 1 : 0;
    });
    // Joining sets (an empty one covers nothing) and every set with a
    // member next to one deactivate.
    std::size_t kept = 0;
    for (int i : live) {
      const auto& set = sets[static_cast<std::size_t>(i)];
      if (joins[static_cast<std::size_t>(i)]) {
        in_set[static_cast<std::size_t>(i)] = true;
      } else if (std::none_of(set.begin(), set.end(), [&](int v) {
                   return covered[static_cast<std::size_t>(v)] != 0;
                 })) {
        live[kept++] = i;
        continue;
      }
      active[static_cast<std::size_t>(i)] = 0;
    }
    live.resize(kept);
    // The same charges as luby_mis: one exchange of priorities (64-bit
    // payloads) and one notification of joiners (1-bit), each a
    // rounds_per_step-round gather through the members.
    ledger.charge_message_round(64, phase, rounds_per_step);
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
