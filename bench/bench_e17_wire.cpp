// E17 — wire volume of the socket backend (net/wire_codec.h +
// net/socket_transport.h).
//
// One series, one claim: the physical bytes a 2-rank loopback cluster moves
// for Luby's MIS decompose exactly into the MessageSize-priced payload of
// the cross-rank messages plus a fixed, enumerable framing overhead —
// nothing hidden, nothing lost.
//
//  * E17_WireVolume — two ranks over a socketpair, each running the
//    message-passing engine over its own SocketTransport. Counters:
//      - logical_bytes:  ShardRuntime total_bits / 8 (the CONGEST price of
//                        every message, rank-local ones included);
//      - wire_bytes:     physical frame bytes both ranks sent (transport
//                        counters — length prefixes included);
//      - ratio:          wire / logical. Only messages addressed to the
//        other rank ship, each as its 9 payload bytes (no addressing) vs
//        8.125 charged bytes, plus one presence bit per cross edge per
//        round; on a random regular graph about half the messages cross the
//        contiguous cut, so the ratio sits well below 1;
//      - overhead_ok:    1 iff each rank's wire bytes equal the closed-form
//        prediction from the runtime's counters, where R is the number of
//        engine rounds and k the number of cross edges to the peer:
//          R·60 + R·ceil(k/8) + 9·(messages to the peer) + (R/2)·24
//            + (20 + 4·owned).
//        60 = 4-byte frame prefix + 56-byte owned-frame header (tag,
//        sender, seq, destination, world, 2×16 tally bytes, payload
//        length); ceil(k/8) = the edge frame's presence bitmap; 24 = one
//        allreduce_sum frame per Luby iteration (the termination test); the
//        last term is the end-of-run gather_colors frame (4-byte prefix,
//        16-byte header, one u32 per owned vertex). I.e. the framing
//        overhead is EXACTLY the documented constants (kFramePrefixBytes,
//        the bitmap and the frame headers), re-derived here from first
//        principles;
//      - identical:      1 iff both ranks' MIS, ledgers and byte counters
//        equal the in-process S=2 golden run (the differential contract,
//        re-asserted on every row).
//
// Emission: wall-clock per row, BENCH_e17.json when DELTACOL_BENCH_JSON is
// set under the minibench harness (schema in bench/README.md), CSV via
// DELTACOL_CSV_DIR.
#include <sys/socket.h>

#include <map>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "mis/luby_sync.h"
#include "net/frame.h"
#include "net/socket_transport.h"
#include "runtime/mailbox.h"

namespace deltacol::bench {
namespace {

constexpr int kDegree = 8;

const Graph& cached_regular(int n) {
  static std::map<int, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_regular(n, kDegree, 2025)).first;
  }
  return it->second;
}

struct RankResult {
  std::vector<bool> mis;
  std::int64_t ledger_total = 0;
  std::int64_t total_bits = 0;
  std::int64_t wire_sent = 0;
  std::int64_t peer_messages = 0;  // messages this rank addressed to the peer
  std::int64_t cross_edges = 0;    // directed edges to the peer's vertices
  std::int64_t owned = 0;
  std::int64_t rounds = 0;
};

void E17_WireVolume(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph& g = cached_regular(n);
  constexpr int kWorld = 2;

  // Golden: the same run on the in-process transport at S=2.
  std::vector<bool> golden_mis;
  std::int64_t golden_ledger = 0, golden_bits = 0;
  {
    ShardRuntime rt(g, kWorld, nullptr);
    Rng rng(99);
    RoundLedger ledger;
    golden_mis = luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &rt);
    golden_ledger = ledger.total();
    golden_bits = rt.total_bits();
  }

  std::vector<RankResult> ranks(kWorld);
  for (auto _ : state) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      state.counters["identical"] = 0;
      return;
    }
    std::vector<std::unique_ptr<ShardRuntime>> rts(kWorld);
    rts[0] = std::make_unique<ShardRuntime>(
        g, kWorld, nullptr,
        std::make_unique<SocketTransport>(0, kWorld,
                                          std::vector<int>{-1, sv[0]}));
    rts[1] = std::make_unique<ShardRuntime>(
        g, kWorld, nullptr,
        std::make_unique<SocketTransport>(1, kWorld,
                                          std::vector<int>{sv[1], -1}));
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        ShardRuntime& rt = *rts[static_cast<std::size_t>(r)];
        Rng rng(99);
        RoundLedger ledger;
        RankResult& out = ranks[static_cast<std::size_t>(r)];
        out.mis = luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &rt);
        out.ledger_total = ledger.total();
        out.total_bits = rt.total_bits();
        out.rounds = rt.rounds_recorded();
        auto& st = static_cast<SocketTransport&>(rt.transport());
        out.wire_sent = st.wire_bytes_sent();
        out.peer_messages = rt.slot_messages(r, 1 - r);
        out.cross_edges = rt.view(r).cross_edges(1 - r);
        out.owned = rt.partition().size(r);
      });
    }
    for (auto& t : threads) t.join();
  }

  // Closed-form framing prediction per rank (see the file comment). Every
  // engine round ships one owned frame to the peer, carrying the presence
  // bitmap and the present payloads; every Luby iteration (two engine
  // rounds) one allreduce_sum frame; the run ends with one gather_colors
  // frame.
  constexpr std::int64_t kOwnedHeader = 5 * 4 + kWorld * 16 + 4;
  constexpr std::int64_t kPerRound = kFramePrefixBytes + kOwnedHeader;
  constexpr std::int64_t kReduceFrame = kFramePrefixBytes + 3 * 4 + 8;
  constexpr std::int64_t kGatherFixed = kFramePrefixBytes + 4 * 4;
  constexpr std::int64_t kLubyPayloadBytes = 9;  // ceil(1/8) + ceil(64/8)
  static_assert(kPerRound == 60 && kReduceFrame == 24 && kGatherFixed == 20,
                "E17 frame constants");

  bool identical = true;
  bool overhead_ok = true;
  std::int64_t wire_total = 0;
  for (const RankResult& rr : ranks) {
    identical = identical && rr.mis == golden_mis &&
                rr.ledger_total == golden_ledger &&
                rr.total_bits == golden_bits;
    const std::int64_t predicted =
        rr.rounds * (kPerRound + (rr.cross_edges + 7) / 8) +
        rr.peer_messages * kLubyPayloadBytes +
        (rr.rounds / 2) * kReduceFrame + kGatherFixed + 4 * rr.owned;
    overhead_ok = overhead_ok && rr.wire_sent == predicted;
    wire_total += rr.wire_sent;
  }
  const double logical_bytes = static_cast<double>(golden_bits) / 8.0;

  state.counters["rounds"] = static_cast<double>(ranks[0].rounds);
  state.counters["logical_bytes"] = logical_bytes;
  state.counters["wire_bytes"] = static_cast<double>(wire_total);
  state.counters["ratio"] =
      logical_bytes > 0 ? static_cast<double>(wire_total) / logical_bytes : 0.0;
  state.counters["overhead_ok"] = overhead_ok ? 1.0 : 0.0;
  state.counters["identical"] = identical ? 1.0 : 0.0;

  std::map<std::string, double> row;
  row["arg0"] = static_cast<double>(state.range(0));
  for (const auto& [name, counter] : state.counters) {
    row[name] = static_cast<double>(counter);
  }
  CsvSink::emit("e17_wire_volume", row);
}

}  // namespace
}  // namespace deltacol::bench

BENCHMARK(deltacol::bench::E17_WireVolume)
    ->ArgsProduct({{20000, 50000}})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);
