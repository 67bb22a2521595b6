// Replays one delta_color call's pipeline through the library's public
// functions, on the same graph, seed and pool size, with one span per call.
// The replay is the traced run's per-layer breakdown of the call; it is
// checked against the call's own output so a drift between the two is
// reported instead of silently mis-attributing time.
#pragma once

#include <string>

#include "core/api.h"
#include "trace.h"

namespace perfbench {

struct ReplayOutcome {
  bool consistent = false;
  std::string mismatch;      // why `consistent` is false
  double children_s = 0.0;   // summed duration of the replayed spans
  int schedule_rounds = 0;   // rounds of delta_plus_one_schedule
  int ruling_set_picks = 0;  // det: |B0| from the ruling set
  int brooks_fixes = 0;      // det: executed Brooks fixes
  int dccs_found = 0;        // rand: DCCs selected in Phase (1)
};

// kDeterministic replays the whole pipeline and requires a bit-identical
// coloring; the randomized algorithms replay the prefix with a public entry
// (schedule, DCC detection, GDCC build and Luby, B-layers) and require the
// call's num_dccs_selected and base_layer_size. Spans become children of
// `parent` and share `call`.
ReplayOutcome replay(const deltacol::Graph& g, deltacol::Algorithm alg,
                     const deltacol::DeltaColoringOptions& opt,
                     const deltacol::DeltaColoringResult& res, Tracer& tracer,
                     int parent, int call);

}  // namespace perfbench
