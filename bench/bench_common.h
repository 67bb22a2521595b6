// Shared helpers for the experiment harness (E1-E10, see DESIGN.md §5).
//
// The measured quantity everywhere is ROUNDS (the LOCAL model's complexity
// measure), surfaced through benchmark counters; wall-clock time is reported
// by the harness (minibench.h) as a by-product. Each binary regenerates one
// experiment row/series of EXPERIMENTS.md.
#pragma once

#include "minibench.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "core/api.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace deltacol::bench {

// When DELTACOL_CSV_DIR is set, every reported benchmark row is appended to
// <dir>/<benchmark-family>.csv (one file per family; header = sorted
// counter names) so experiment series can be plotted directly.
class CsvSink {
 public:
  static void emit(const std::string& family,
                   const std::map<std::string, double>& row) {
    const char* dir = std::getenv("DELTACOL_CSV_DIR");
    if (dir == nullptr || row.empty()) return;
    const std::string path = std::string(dir) + "/" + family + ".csv";
    std::ifstream probe(path);
    const bool fresh = !probe.good();
    probe.close();
    std::ofstream out(path, std::ios::app);
    if (!out.good()) return;
    if (fresh) {
      bool first = true;
      for (const auto& [k, v] : row) {
        out << (first ? "" : ",") << k;
        first = false;
      }
      out << '\n';
    }
    bool first = true;
    for (const auto& [k, v] : row) {
      out << (first ? "" : ",") << v;
      first = false;
    }
    out << '\n';
  }
};

// Deterministic workload construction: one graph per (family, n, d, seed).
inline Graph make_regular(int n, int d, std::uint64_t seed) {
  Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(n) * 31 +
          static_cast<std::uint64_t>(d));
  return random_regular(n, d, rng);
}

inline Graph make_tree(int n, int d, std::uint64_t seed) {
  Rng rng(seed * 7349ULL + static_cast<std::uint64_t>(n));
  return random_tree(n, d, rng);
}

inline double log2log2(double n) {
  return std::log2(std::max(2.0, std::log2(std::max(4.0, n))));
}

// Attach the standard counters every experiment reports.
inline void report(benchmark::State& state, const DeltaColoringResult& res) {
  state.counters["rounds"] = static_cast<double>(res.ledger.total());
  state.counters["retries"] = res.stats.retries_used;
  state.counters["repairs"] = res.stats.repairs;
}

// Dump the state's counters plus the range arguments as one CSV row (no-op
// unless DELTACOL_CSV_DIR is set). Call at the end of a benchmark body.
inline void csv_row(benchmark::State& state, const std::string& family) {
  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit(family, row);
}

}  // namespace deltacol::bench
