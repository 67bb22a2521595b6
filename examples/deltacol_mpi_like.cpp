// deltacol_mpi_like — one rank of a multi-process deltacol run.
//
//   ./deltacol_mpi_like --gen regular-500-6 --transport tcp
//       --rank 0 --world 2 --port-base 47300 [--alg all] [--seed S]
//       [--congest-bits B] [--out FILE]          (one command line)
//
// The mpirun-style launcher: every rank is one OS process owning one shard.
// Rank/world/endpoints come from the flags or from the DELTACOL_RANK /
// DELTACOL_WORLD / DELTACOL_ENDPOINTS (or DELTACOL_PORT_BASE) environment,
// so `for r in 0 1; do DELTACOL_RANK=$r ./deltacol_mpi_like ... & done` works.
//
// What each rank does:
//   1. builds (or streams from --load) only its own CSR slice, derives its
//      halo, and fetches the halo adjacency from the owning ranks over the
//      wire (net/rank_loader.h) — verified against the full graph;
//   2. runs Luby's MIS on the message-passing engine over the socket
//      transport: each rank holds only its own shard's state, and every
//      round ships each peer one edge frame over TCP — a presence bitmap
//      over the cross edges to that peer, then the payloads (DESIGN.md
//      section 6, distributed rounds);
//   3. runs the requested Delta-coloring algorithms replicated (every rank
//      executes the same in-process pipeline on the full graph).
//
// Output discipline: every line NOT starting with "# " is canonical — a
// pure function of (workload, world, algs, seed, B) — and must be
// byte-identical across all ranks AND equal to the in-process reference
// (--transport inproc). scripts/run_local_cluster.sh spawns the ranks,
// strips the "# " rank-local lines, and diffs. Lines starting with "# "
// carry rank-local facts (wire byte counters, rank id) that legitimately
// differ per rank.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "flag_parse.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/partition.h"
#include "graph/renumber.h"
#include "net/rank_loader.h"
#include "net/socket_transport.h"
#include "runtime/mailbox.h"
#include "mis/luby_sync.h"
#include "util/check.h"
#include "util/rng.h"

using namespace deltacol;

namespace {

void usage(std::ostream& out) {
  out << "usage: deltacol_mpi_like (--gen ZOO-NAME | --load EDGE-LIST)\n"
         "         [--transport tcp|inproc] [--rank R --world W]\n"
         "         [--endpoints host:port,...] [--port-base P]\n"
         "         [--alg all|small|large|det|ps|naive] [--seed S]\n"
         "         [--congest-bits B] [--partition contiguous|cluster]\n"
         "         [--out FILE]\n"
         "  tcp     one process per rank; rank/world/endpoints from flags or\n"
         "          DELTACOL_RANK/DELTACOL_WORLD/DELTACOL_ENDPOINTS env\n"
         "  inproc  single-process reference producing the canonical output\n"
         "          the tcp ranks must match byte-for-byte (--world shards)\n"
         "  --partition contiguous|cluster\n"
         "          shard ownership map (graph/renumber.h). Placement only:\n"
         "          all canonical lines except the slice/cross-edge stats are\n"
         "          identical for either choice; cluster cuts the cross-rank\n"
         "          payload reported on the \"# rank=\" lines\n"
         "Numeric flags take base-10 integers; a malformed or out-of-range\n"
         "value exits 2 with a message naming the flag.\n";
}

std::uint64_t fnv1a(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_ints(const std::vector<int>& xs) {
  return fnv1a(xs.data(), xs.size() * sizeof(int));
}

std::uint64_t hash_bools(const std::vector<bool>& bs) {
  std::vector<int> xs(bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) xs[i] = bs[i] ? 1 : 0;
  return hash_ints(xs);
}

std::string hex(std::uint64_t h) {
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string gen_name, load_path, endpoints_spec, alg_spec = "all", out_path;
  std::string transport_kind = "tcp";
  int rank = -1, world = -1, port_base = -1;
  std::uint64_t seed = 1;
  std::int64_t congest_bits = 0;
  PartitionStrategy strategy = PartitionStrategy::kContiguous;
  try {
    using flag_parse::integer;
    using flag_parse::UsageError;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&] { return flag_parse::next_value(argc, argv, i); };
      if (a == "--help" || a == "-h") {
        usage(std::cout);
        return 0;
      } else if (a == "--gen") {
        gen_name = value();
      } else if (a == "--load") {
        load_path = value();
      } else if (a == "--transport") {
        transport_kind = value();
        if (transport_kind != "tcp" && transport_kind != "inproc") {
          throw UsageError("--transport must be tcp or inproc");
        }
      } else if (a == "--rank") {
        rank = integer(a, value(), 0, 65535);
      } else if (a == "--world") {
        world = integer(a, value(), 1, 65535);
      } else if (a == "--endpoints") {
        endpoints_spec = value();
      } else if (a == "--port-base") {
        port_base = integer(a, value(), 1, 65535);
      } else if (a == "--alg") {
        alg_spec = value();
      } else if (a == "--seed") {
        seed = integer<std::uint64_t>(a, value(), 0, UINT64_MAX);
      } else if (a == "--congest-bits") {
        congest_bits = integer<std::int64_t>(a, value(), 0, INT64_MAX);
      } else if (a == "--partition") {
        if (!parse_partition_strategy(value(), &strategy)) {
          throw UsageError("--partition must be contiguous or cluster");
        }
      } else if (a == "--out") {
        out_path = value();
      } else {
        throw UsageError("unknown flag " + a);
      }
    }
    if (gen_name.empty() == load_path.empty()) {
      throw UsageError("give exactly one of --gen or --load");
    }
  } catch (const flag_parse::UsageError& e) {
    std::cerr << "deltacol_mpi_like: " << e.what() << " (see --help)\n";
    return 2;
  }

  try {
    const bool tcp = transport_kind == "tcp";

    // Resolve the cluster shape.
    NetConfig cfg;
    if (tcp) {
      if (auto env = NetConfig::from_env(); env && rank < 0) {
        cfg = *env;
      } else {
        cfg.rank = rank;
        cfg.world = world;
        if (!endpoints_spec.empty()) {
          cfg.endpoints = NetConfig::parse_endpoints(endpoints_spec);
        } else {
          DC_REQUIRE(port_base > 0, "tcp needs --endpoints or --port-base");
          cfg.endpoints = NetConfig::localhost_endpoints(cfg.world, port_base);
        }
        cfg.validate();
      }
    } else {
      cfg.rank = 0;
      cfg.world = world > 0 ? world : 2;
    }
    const int S = cfg.world;

    std::ofstream out_file;
    if (!out_path.empty()) {
      out_file.open(out_path);
      DC_REQUIRE(out_file.good(), "cannot open --out file: " + out_path);
    }
    std::ostream& out = out_path.empty() ? std::cout : out_file;

    // The full graph: replicated pipeline phases need it. (The slice path
    // below additionally proves a rank can load *only* its own rows.)
    const Graph g = !gen_name.empty() ? generator_zoo_graph(gen_name)
                                      : load_edge_list(load_path);
    const std::string workload = !gen_name.empty() ? gen_name : load_path;
    out << "workload=" << workload << " n=" << g.num_vertices()
        << " m=" << g.num_edges() << " delta=" << g.max_degree()
        << " world=" << S << " seed=" << seed << " congest-bits="
        << congest_bits << " partition=" << partition_strategy_name(strategy)
        << "\n";

    // --- 1. per-rank slice + halo -----------------------------------------
    // The canonical table covers every rank (a pure function of the
    // partition, computable locally); the wire verification covers the
    // local rank. Slices live in the partition's layout space (identical to
    // original ids for the contiguous strategy).
    const VertexPartition part = make_partition(g, S, strategy, nullptr);
    std::vector<CsrSlice> slices;
    for (int r = 0; r < S; ++r) {
      const CsrSlice& s = slices.emplace_back(
          !load_path.empty() ? load_edge_list_slice(load_path, part, r)
                             : slice_of(g, part, r));
      // Each internal edge sits in two owned rows.
      const auto owned_targets = std::count_if(
          s.rows.targets.begin(), s.rows.targets.end(),
          [&s](int t) { return s.owns(t); });
      out << "shard=" << r << " owned=[" << s.lo << "," << s.hi
          << ") adj-entries=" << s.rows.targets.size() << " internal-edges="
          << owned_targets / 2 << " halo=" << halo_of(s).size() << "\n";
    }
    {
      std::ostringstream frac;
      frac.setf(std::ios::fixed);
      frac.precision(4);
      frac << cross_edge_fraction(g, part);
      out << "cross-edge-fraction=" << frac.str() << "\n";
    }

    std::unique_ptr<ShardRuntime> runtime;
    if (tcp) {
      runtime = std::make_unique<ShardRuntime>(
          g, part, nullptr, std::make_unique<SocketTransport>(cfg));
    } else {
      runtime = std::make_unique<ShardRuntime>(g, part, nullptr);
    }

    // --- 2. halo adjacency over the wire ----------------------------------
    // Every halo row must equal the full graph's adjacency of that vertex.
    // Rows speak layout positions; translate back to original ids to
    // compare against the full graph.
    const auto verify_halo = [&](const std::vector<int>& ids,
                                 const auto& row_of) {
      std::vector<int> expect;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        expect.clear();
        for (int u : g.neighbors(part.vertex_at(ids[i]))) {
          expect.push_back(part.position_of(u));
        }
        std::sort(expect.begin(), expect.end());
        const std::span<const int> got = row_of(i);
        DC_ENSURE(std::equal(expect.begin(), expect.end(), got.begin(),
                             got.end()),
                  "halo adjacency disagrees with the graph");
      }
    };
    if (tcp) {
      const HaloRows fetched = exchange_halo_adjacency(
          runtime->transport(), slices[static_cast<std::size_t>(cfg.rank)]);
      verify_halo(fetched.ids, [&](std::size_t i) {
        return fetched.rows[static_cast<int>(i)];
      });
    } else {
      // Reference mode: every shard's halo rows, cut from their owners'
      // slices as the owners would send them, pass the same check.
      for (const CsrSlice& s : slices) {
        const std::vector<int> halo = halo_of(s);
        verify_halo(halo, [&](std::size_t i) {
          const int h = halo[i];
          const int owner = part.shard_of(part.vertex_at(h));
          return slices[static_cast<std::size_t>(owner)].neighbors(h);
        });
      }
    }
    out << "halo-exchange: verified\n";

    // --- 3. Luby's MIS with every round's cross-rank messages on the wire -
    {
      Rng rng(seed);
      RoundLedger ledger;
      if (congest_bits > 0) ledger.set_congest_bits(congest_bits);
      const std::vector<bool> mis =
          luby_mis_message_passing(g, rng, ledger, "luby", nullptr,
                                   runtime.get());
      std::int64_t mis_size = 0;
      for (bool b : mis) mis_size += b ? 1 : 0;
      out << "luby: mis=" << mis_size << " hash=" << hex(hash_bools(mis))
          << " rounds=" << ledger.total() << " total-bits="
          << runtime->total_bits() << " cross-bits="
          << runtime->cross_shard_bits() << " engine-rounds="
          << runtime->rounds_recorded() << "\n";
      if (tcp) {
        const SocketTransport& st = runtime->transport();
        out << "# rank=" << cfg.rank << " wire-bytes-sent="
            << st.wire_bytes_sent() << " wire-bytes-received="
            << st.wire_bytes_received() << " frames=" << st.frames_sent()
            << " cross-payload-bytes=" << st.cross_payload_bytes() << "\n";
      }
    }

    // --- 4. the Delta-coloring pipeline, replicated ------------------------
    std::vector<std::pair<std::string, Algorithm>> algs;
    auto add = [&](const std::string& name, Algorithm a) {
      if (alg_spec == "all" || alg_spec == name) algs.emplace_back(name, a);
    };
    add("det", Algorithm::kDeterministic);
    add("large", Algorithm::kRandomizedLarge);
    add("small", Algorithm::kRandomizedSmall);
    add("ps", Algorithm::kBaselineND);
    add("naive", Algorithm::kBaselineGreedyBrooks);
    DC_REQUIRE(!algs.empty(), "unknown --alg value: " + alg_spec);

    for (const auto& [name, alg] : algs) {
      DeltaColoringOptions opt;
      opt.seed = seed;
      opt.congest_bits = congest_bits;
      const DeltaColoringResult res = delta_color(g, alg, opt);
      validate_delta_coloring(g, res.coloring, res.delta);
      std::vector<int> colors(res.coloring.begin(), res.coloring.end());
      out << "alg=" << name << " colors=" << num_colors_used(res.coloring)
          << "/" << res.delta << " hash=" << hex(hash_ints(colors))
          << " rounds=" << res.ledger.total() << "\n";
      for (const auto& pt : res.ledger.breakdown()) {
        out << "  ledger " << name << " " << pt.phase << " " << pt.rounds
            << "\n";
      }
    }

    if (tcp) runtime->transport().barrier();
    out << "done\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
