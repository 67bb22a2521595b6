// deltacol_cli — color a graph from disk.
//
//   ./deltacol_cli <edge-list-file> [--alg small|large|det|ps|naive]
//                  [--seed S] [--threads T] [--shards S] [--paper-constants]
//                  [--dot out.dot]
//
// Reads an edge list ("n m" header, one "u v" pair per line, 0-based),
// runs the chosen Delta-coloring algorithm, prints the coloring summary and
// the per-phase round ledger, and optionally writes a colored DOT file.
// Exit code 0 iff a valid Delta-coloring was produced.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/api.h"
#include "flag_parse.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "net/socket_transport.h"

using namespace deltacol;

namespace {

void usage(std::ostream& out) {
  out << "usage: deltacol_cli <edge-list> [--alg small|large|det|ps|naive]"
         " [--seed S] [--threads T] [--shards S] [--congest-bits B]"
         " [--partition contiguous|cluster]"
         " [--exchange replicated|owner] [--paper-constants] [--dot out.dot]\n"
         "       [--transport inproc|tcp] [--rank R --world W"
         " (--endpoints host:port,... | --port-base P)]\n"
         "  --threads T   worker threads for the parallel runtime (0 = all\n"
         "                hardware threads; results are identical for any T)\n"
         "  --shards S    shards for the partitioned execution layer (<= 1 =\n"
         "                unsharded; results are identical for any S)\n"
         "  --partition contiguous|cluster\n"
         "                shard ownership map: contiguous id ranges (default)\n"
         "                or locality clusters (graph/renumber.h). Placement\n"
         "                only: the coloring and ledger are identical for\n"
         "                either choice, only cross-shard traffic changes\n"
         "  --congest-bits B\n"
         "                charge rounds under a CONGEST(B) bandwidth cap (B\n"
         "                bits per edge per round; 0 = LOCAL model).\n"
         "                Accounting only: the coloring is identical for\n"
         "                any B, only the reported round totals change\n"
         "  --exchange replicated|owner\n"
         "                distributed exchange policy carried in the options\n"
         "                (runtime/execution_mode.h). delta_color's pipeline\n"
         "                uses shards for placement only — no transport is\n"
         "                built — so this is configuration parity with\n"
         "                deltacol_mpi_like, where the flag selects the\n"
         "                owner-routed wire discipline\n"
         "  --transport tcp\n"
         "                join a multi-process cluster as one rank (flags or\n"
         "                DELTACOL_RANK/DELTACOL_WORLD/DELTACOL_ENDPOINTS\n"
         "                env; see deltacol_mpi_like). The pipeline runs\n"
         "                replicated with --shards = world, fenced by\n"
         "                cluster barriers, so every rank prints the same\n"
         "                coloring and ledger\n"
         "Numeric flags take base-10 integers; a malformed or out-of-range\n"
         "value exits 2 with a message naming the flag.\n";
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
  std::string transport_kind = "inproc";
  std::string endpoints_spec;
  int net_rank = -1, net_world = -1, port_base = -1;
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
      } else if (a == "--shards") {
        opt.num_shards = integer(a, value(), 0, 65535);
      } else if (a == "--congest-bits") {
        opt.congest_bits = integer<std::int64_t>(a, value(), 0, INT64_MAX);
      } else if (a == "--partition") {
        if (!parse_partition_strategy(value(), &opt.partition)) {
          throw UsageError("--partition must be contiguous or cluster");
        }
      } else if (a == "--exchange") {
        if (!parse_exchange_policy(value().c_str(), &opt.exchange)) {
          throw UsageError("--exchange must be replicated or owner");
        }
      } else if (a == "--paper-constants") {
        opt.use_paper_constants = true;
      } else if (a == "--dot") {
        dot_path = value();
      } else if (a == "--transport") {
        transport_kind = value();
        if (transport_kind != "inproc" && transport_kind != "tcp") {
          throw UsageError("--transport must be inproc or tcp");
        }
      } else if (a == "--rank") {
        net_rank = integer(a, value(), 0, 65535);
      } else if (a == "--world") {
        net_world = integer(a, value(), 1, 65535);
      } else if (a == "--endpoints") {
        endpoints_spec = value();
      } else if (a == "--port-base") {
        port_base = integer(a, value(), 1, 65535);
      } else {
        throw UsageError("unknown flag " + a);
      }
    }
  } catch (const flag_parse::UsageError& e) {
    std::cerr << "deltacol_cli: " << e.what() << " (see --help)\n";
    return 2;
  }

  try {
    // --transport tcp: join the cluster before doing any work, run the
    // deterministic pipeline replicated (shards = world), and fence the run
    // with barriers so every rank starts and finishes together. Each rank
    // prints the identical summary — the multi-process analogue of the
    // --shards flag.
    std::unique_ptr<SocketTransport> cluster;
    if (transport_kind == "tcp") {
      NetConfig cfg;
      if (auto env = NetConfig::from_env(); env && net_rank < 0) {
        cfg = *env;
      } else {
        cfg.rank = net_rank;
        cfg.world = net_world;
        if (!endpoints_spec.empty()) {
          cfg.endpoints = NetConfig::parse_endpoints(endpoints_spec);
        } else {
          DC_REQUIRE(port_base > 0,
                     "--transport tcp needs --endpoints or --port-base");
          cfg.endpoints = NetConfig::localhost_endpoints(cfg.world, port_base);
        }
        cfg.validate();
      }
      cluster = std::make_unique<SocketTransport>(cfg);
      if (opt.num_shards <= 1) opt.num_shards = cluster->world();
      cluster->barrier();
    }

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
    if (cluster) cluster->barrier();
    return 0;
  } catch (const ContractViolation& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
