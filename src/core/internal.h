// Internal plumbing between the api dispatcher and the per-component
// algorithm implementations. Not part of the public API.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "core/api.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace deltacol::internal {

// Everything an algorithm needs for one nice connected component whose max
// degree equals the global palette size.
struct ComponentContext {
  const Graph& g;            // the component (dense vertex ids)
  int delta;                 // palette size == g.max_degree()
  const Coloring& schedule;  // Linial O(Delta^2) symmetry-breaking coloring
  int schedule_colors;
  const DeltaColoringOptions& opt;
  Rng& rng;
  RoundLedger& ledger;
  PhaseStats& stats;
  ThreadPool* pool = nullptr;  // nullptr: run serial (see src/runtime/)
};

void run_deterministic(ComponentContext& ctx, Coloring& c);
void run_baseline_nd(ComponentContext& ctx, Coloring& c);
void run_baseline_greedy_brooks(ComponentContext& ctx, Coloring& c);
void run_randomized(ComponentContext& ctx, Coloring& c, bool small_variant);

// Colors the layers of `layering` above B0, charging `phase`.
using LayerStep =
    std::function<void(const Layering& layering, std::string_view phase)>;

// Theorem 4's pipeline, shared by det and the ND baseline (det_delta.cpp):
// a distance-(2 rho + 2) ruling set B0, layers by distance to it,
// color_layers on the layers above B0, then B0 by scheduled Brooks fixes.
// Charges `<prefix>/ruling-set`, `<prefix>/layering` and
// `<prefix>/base-layer`, and hands color_layers `<prefix>/layer-coloring`.
void run_layered_brooks(ComponentContext& ctx, Coloring& c,
                        std::string_view prefix,
                        const LayerStep& color_layers);

// Folds one component's counters into the run-wide stats (sums, except
// max_leftover_component which is a max; retries_used is owned by the
// dispatcher). Called on the dispatcher thread, in component-index order.
void merge_component_stats(PhaseStats& into, const PhaseStats& from);

// Section 4.3: color one leftover component (vertex list in ctx.g ids, all
// currently uncolored) respecting the partial coloring in c. Returns true
// on success. Returns false — having colored nothing — when the component
// has neither a free node nor a DCC (the Lemma-27 fallback case, reachable
// only under non-paper parameters): the caller must then run
// repair_completion serially, because the repair may color outside the
// component and so cannot run under the Phase-(6) fan-out. On the success
// path the function writes only the component's own coloring slice, reads
// only stable outside state, and draws only from ctx.rng — which is what
// makes leftover components schedulable in parallel (DESIGN.md §6).
bool color_small_component(ComponentContext& ctx, Coloring& c,
                           const std::vector<int>& component);

// Repair path: greedily color any still-uncolored vertices, invoking the
// distributed Brooks fix for stuck ones. Always succeeds on nice graphs;
// rounds are charged (sequentially, worst case) to "repair".
void repair_completion(ComponentContext& ctx, Coloring& c);

}  // namespace deltacol::internal
