// deltacol_cli — color a graph from disk.
//
//   ./deltacol_cli <edge-list-file> [--alg small|large|det|ps|naive]
//                  [--seed S] [--threads T] [--congest-bits B]
//                  [--paper-constants] [--dot out.dot]
//
// Reads an edge list ("n m" header, one "u v" pair per line, 0-based),
// runs the chosen Delta-coloring algorithm, prints the coloring summary and
// the per-phase round ledger, and optionally writes a colored DOT file.
// Exit code 0 iff a valid Delta-coloring was produced.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "core/api.h"
#include "flag_parse.h"
#include "graph/io.h"
#include "graph/metrics.h"

using namespace deltacol;

namespace {

void usage(std::ostream& out) {
  out << "usage: deltacol_cli <edge-list> [--alg small|large|det|ps|naive]"
         " [--seed S] [--threads T] [--congest-bits B] [--paper-constants]"
         " [--dot out.dot]\n"
         "  --threads T   worker threads for the parallel runtime (0 = all\n"
         "                hardware threads; results are identical for any T)\n"
         "  --congest-bits B\n"
         "                charge rounds under a CONGEST(B) bandwidth cap (B\n"
         "                bits per edge per round; 0 = LOCAL model).\n"
         "                Accounting only: the coloring is identical for\n"
         "                any B, only the reported round totals change\n"
         "Numeric flags take base-10 integers; a malformed or out-of-range\n"
         "value exits 2 with a message naming the flag. A malformed edge list\n"
         "exits 1 with a message naming its line.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 2;
  }
  const std::string path = argv[1];
  if (path == "--help" || path == "-h") {
    usage(std::cout);
    return 0;
  }
  Algorithm alg = Algorithm::kRandomizedSmall;
  DeltaColoringOptions opt;
  std::string dot_path;
  try {
    using flag_parse::integer;
    using flag_parse::UsageError;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&] { return flag_parse::next_value(argc, argv, i); };
      if (a == "--alg") {
        const std::string v = value();
        if (v == "small") alg = Algorithm::kRandomizedSmall;
        else if (v == "large") alg = Algorithm::kRandomizedLarge;
        else if (v == "det") alg = Algorithm::kDeterministic;
        else if (v == "ps") alg = Algorithm::kBaselineND;
        else if (v == "naive") alg = Algorithm::kBaselineGreedyBrooks;
        else throw UsageError("--alg must be small, large, det, ps or naive");
      } else if (a == "--seed") {
        opt.seed = integer<std::uint64_t>(a, value(), 0, UINT64_MAX);
      } else if (a == "--threads") {
        opt.num_threads = integer(a, value(), 0, 1024);
      } else if (a == "--congest-bits") {
        opt.congest_bits = integer<std::int64_t>(a, value(), 0, INT64_MAX);
      } else if (a == "--paper-constants") {
        opt.use_paper_constants = true;
      } else if (a == "--dot") {
        dot_path = value();
      } else {
        throw UsageError("unknown flag " + a);
      }
    }
  } catch (const flag_parse::UsageError& e) {
    std::cerr << "deltacol_cli: " << e.what() << " (see --help)\n";
    return 2;
  }

  try {
    const Graph g = load_edge_list(path);
    std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
              << " Delta=" << g.max_degree() << " degeneracy="
              << degeneracy(g).degeneracy << "\n";
    const DeltaColoringResult res = delta_color(g, alg, opt);
    validate_delta_coloring(g, res.coloring, res.delta);
    std::cout << "algorithm: " << algorithm_name(alg) << "\n"
              << "colors: " << num_colors_used(res.coloring) << " / "
              << res.delta << "\n"
              << res.ledger.report();
    if (!dot_path.empty()) {
      std::ofstream out(dot_path);
      write_dot(out, g, res.coloring);
      std::cout << "wrote " << dot_path << "\n";
    }
    return 0;
  } catch (const ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
