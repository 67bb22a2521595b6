// The distributed socket backend (net/): framing over real fds including
// torn-frame / short-read / oversize injection, strict NetConfig rendezvous
// parsing, the SocketTransport exchange primitive and barrier, the wire
// invariants every collective checks (header tag, sender and seq; owned
// destination and world), per-rank slice loading + halo exchange over the
// wire, peer loss and silent peers surfacing as a WireError naming the
// rank, and the headline differential:
// Luby's MIS on the message-passing engine over a 2-rank socket cluster is
// bit-identical — colorings, ledgers, and byte counters — to the
// in-process runtime at S=2, for every zoo workload under LOCAL and
// CONGEST(64), with the cross-rank payload equal to its closed form.
//
// The two ranks live in one process: each owns a SocketTransport built over
// pre-connected socketpair fds and runs on its own thread, so the suite is
// hermetic (no ports, no processes). The multi-process rendezvous path is
// covered by scripts/run_local_cluster.sh and the tcp-2rank CI leg.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "graph/renumber.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "net/frame.h"
#include "net/rank_loader.h"
#include "net/socket_transport.h"
#include "net/wire_codec.h"
#include "runtime/mailbox.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

// --- harness ---------------------------------------------------------------

struct FdPair {
  int a = -1;
  int b = -1;
  FdPair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return;
    }
    a = sv[0];
    b = sv[1];
  }
  // Transports take ownership; only close what was never handed off.
  void close_remaining() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
    a = b = -1;
  }
};

// Two pre-connected rank transports (world = 2) over a socketpair.
std::pair<std::unique_ptr<SocketTransport>, std::unique_ptr<SocketTransport>>
loopback_pair() {
  FdPair fds;
  auto t0 = std::make_unique<SocketTransport>(0, 2, std::vector<int>{-1, fds.a});
  auto t1 = std::make_unique<SocketTransport>(1, 2, std::vector<int>{fds.b, -1});
  fds.a = fds.b = -1;
  return {std::move(t0), std::move(t1)};
}

// Runs rank bodies concurrently (each body gets its rank id) and rethrows
// the first failure on the test thread.
template <typename Body>
void run_ranks(int world, Body body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Restores (unsets) an environment variable on scope exit, so a test that
// fails mid-way cannot leak its value into later tests.
struct EnvGuard {
  std::string name;
  EnvGuard(const std::string& n, const std::string& value) : name(n) {
    ::setenv(name.c_str(), value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name.c_str()); }
};

// --- framing over real fds -------------------------------------------------

TEST(Frame, RoundTripsOverSocketpair) {
  FdPair fds;
  const WireBuf msg = {1, 2, 3, 250, 251};
  write_frame(fds.a, msg);
  write_frame(fds.a, {});  // empty frames are legal
  EXPECT_EQ(read_frame(fds.b), msg);
  EXPECT_EQ(read_frame(fds.b), WireBuf{});
  fds.close_remaining();
}

TEST(Frame, CleanEofAtBoundaryIsNotAnError) {
  FdPair fds;
  write_frame(fds.a, {9, 9});
  ::close(fds.a);
  fds.a = -1;
  WireBuf out;
  EXPECT_TRUE(try_read_frame(fds.b, out));
  EXPECT_EQ(out, (WireBuf{9, 9}));
  EXPECT_FALSE(try_read_frame(fds.b, out));  // EOF exactly between frames
  EXPECT_THROW(read_frame(fds.b), WireError);
  fds.close_remaining();
}

TEST(Frame, TornPrefixThrows) {
  FdPair fds;
  const std::uint8_t half_prefix[2] = {4, 0};  // 2 of the 4 length bytes
  ASSERT_EQ(::send(fds.a, half_prefix, 2, 0), 2);
  ::close(fds.a);
  fds.a = -1;
  WireBuf out;
  EXPECT_THROW(try_read_frame(fds.b, out), WireError);
  fds.close_remaining();
}

TEST(Frame, ShortReadInsidePayloadThrows) {
  FdPair fds;
  // Prefix promises 10 payload bytes; deliver 3 and hang up.
  const std::uint8_t bytes[] = {10, 0, 0, 0, 7, 7, 7};
  ASSERT_EQ(::send(fds.a, bytes, sizeof(bytes), 0),
            static_cast<ssize_t>(sizeof(bytes)));
  ::close(fds.a);
  fds.a = -1;
  EXPECT_THROW(read_frame(fds.b), WireError);
  fds.close_remaining();
}

TEST(Frame, OversizedLengthPrefixThrows) {
  FdPair fds;
  const std::uint8_t bytes[] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB frame
  ASSERT_EQ(::send(fds.a, bytes, 4, 0), 4);
  EXPECT_THROW(read_frame(fds.b), WireError);
  fds.close_remaining();
}

TEST(Frame, PartsArriveAsOnePayload) {
  FdPair fds;
  const WireBuf head = {1, 2, 3};
  const WireBuf tail = {250, 251};
  write_frame_parts(fds.a, {head, {}, tail});  // empty parts are legal
  write_frame_parts(fds.a, {});
  EXPECT_EQ(read_frame(fds.b), (WireBuf{1, 2, 3, 250, 251}));
  EXPECT_EQ(read_frame(fds.b), WireBuf{});
  EXPECT_THROW(write_frame_parts(fds.a, {head, head, head, head}),
               ContractViolation);
  fds.close_remaining();
}

// Parts far larger than a socket buffer: the gathered write comes back
// short, inside a part and on part boundaries, while the peer drains it.
// Over a pipe the write falls back to writev.
TEST(Frame, LargePartsSurvivePartialWrites) {
  WireBuf head(1000), tail(std::size_t{3} << 20);
  for (std::size_t i = 0; i < head.size(); ++i) {
    head[i] = static_cast<std::uint8_t>(i);
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    tail[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  WireBuf want = head;
  want.insert(want.end(), tail.begin(), tail.end());

  FdPair fds;
  std::thread writer([&] { write_frame_parts(fds.a, {head, tail, head}); });
  const WireBuf got = read_frame(fds.b);
  writer.join();
  WireBuf want3 = want;
  want3.insert(want3.end(), head.begin(), head.end());
  EXPECT_EQ(got, want3);
  fds.close_remaining();

  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  std::thread pipe_writer([&] { write_frame_parts(p[1], {head, tail}); });
  const WireBuf via_pipe = read_frame(p[0]);
  pipe_writer.join();
  EXPECT_EQ(via_pipe, want);
  ::close(p[0]);
  ::close(p[1]);
}

// Rank 0's side of one exchange_owned call with nothing to send: an empty
// payload for the peer and zero tallies.
SocketTransport::OwnedExchange exchange_nothing(SocketTransport& t) {
  return t.exchange_owned(std::vector<WireBuf>(2), {0, 0}, {0, 0});
}

// A torn exchange frame surfaces as WireError from the transport itself.
TEST(SocketTransport, PeerHangupMidExchangeThrows) {
  FdPair fds;
  auto t0 = std::make_unique<SocketTransport>(0, 2, std::vector<int>{-1, fds.a});
  const int raw = fds.b;
  fds.a = -1;
  std::thread saboteur([&] {
    // Send a torn frame: a length prefix promising 100 bytes, then 3 bytes
    // and a hangup. Rank 0's own (tiny) outbound frame fits in the kernel
    // buffer, so its writer completes without anyone draining.
    const std::uint8_t bytes[] = {100, 0, 0, 0, 1, 2, 3};
    (void)::send(raw, bytes, sizeof(bytes), 0);
    ::close(raw);
  });
  EXPECT_THROW(exchange_nothing(*t0), WireError);
  saboteur.join();
  fds.b = -1;
  fds.close_remaining();
}

// --- NetConfig -------------------------------------------------------------

TEST(NetConfig, ParsesEndpointLists) {
  const auto eps = NetConfig::parse_endpoints("127.0.0.1:4000,example.com:81");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].first, "127.0.0.1");
  EXPECT_EQ(eps[0].second, 4000);
  EXPECT_EQ(eps[1].first, "example.com");
  EXPECT_EQ(eps[1].second, 81);
  EXPECT_THROW(NetConfig::parse_endpoints("nohost"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("host:"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints(":80"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("host:notaport"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("host:99999"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("127.0.0.1:80x"), ContractViolation);
  EXPECT_THROW(NetConfig::parse_endpoints("host: 80"), ContractViolation);
}

TEST(NetConfig, LocalhostEndpointsAndValidation) {
  const auto eps = NetConfig::localhost_endpoints(3, 5000);
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[2], (std::pair<std::string, int>{"127.0.0.1", 5002}));
  NetConfig cfg;
  cfg.rank = 1;
  cfg.world = 3;
  cfg.endpoints = eps;
  EXPECT_NO_THROW(cfg.validate());
  cfg.rank = 3;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg.rank = 1;
  cfg.endpoints.pop_back();
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

TEST(NetConfig, FromEnvRoundTrip) {
  ASSERT_EQ(::setenv("DELTACOL_RANK", "1", 1), 0);
  ASSERT_EQ(::setenv("DELTACOL_WORLD", "2", 1), 0);
  ASSERT_EQ(::setenv("DELTACOL_ENDPOINTS", "127.0.0.1:7000,127.0.0.1:7001", 1),
            0);
  auto cfg = NetConfig::from_env();
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->rank, 1);
  EXPECT_EQ(cfg->world, 2);
  ASSERT_EQ(cfg->endpoints.size(), 2u);
  EXPECT_EQ(cfg->endpoints[1].second, 7001);

  // Port-base shorthand.
  ASSERT_EQ(::unsetenv("DELTACOL_ENDPOINTS"), 0);
  ASSERT_EQ(::setenv("DELTACOL_PORT_BASE", "6100", 1), 0);
  cfg = NetConfig::from_env();
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->endpoints[0], (std::pair<std::string, int>{"127.0.0.1", 6100}));

  // Half-set environment is an error, absent environment is nullopt.
  ASSERT_EQ(::unsetenv("DELTACOL_WORLD"), 0);
  EXPECT_THROW(NetConfig::from_env(), ContractViolation);
  ASSERT_EQ(::unsetenv("DELTACOL_RANK"), 0);
  ASSERT_EQ(::unsetenv("DELTACOL_PORT_BASE"), 0);
  EXPECT_FALSE(NetConfig::from_env().has_value());
}

// Every number in the cluster config is a whole base-10 integer: "abc" is
// not rank 0, "2x" is not world 2, and "5s" is not a 5 ms timeout. The
// error names the variable and the value.
TEST(NetConfig, NonIntegerValuesAreRejectedNamingTheVariable) {
  const auto expect_rejected = [](const std::string& var,
                                  const std::string& value, auto make) {
    EnvGuard guard(var, value);
    try {
      make();
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(var), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  };
  EnvGuard endpoints("DELTACOL_ENDPOINTS", "127.0.0.1:7000,127.0.0.1:7001");
  {
    EnvGuard world("DELTACOL_WORLD", "2");
    expect_rejected("DELTACOL_RANK", "abc", [] { NetConfig::from_env(); });
    expect_rejected("DELTACOL_RANK", "", [] { NetConfig::from_env(); });
  }
  EnvGuard rank("DELTACOL_RANK", "1");
  expect_rejected("DELTACOL_WORLD", "2x", [] { NetConfig::from_env(); });
  {
    EnvGuard world("DELTACOL_WORLD", "2");
    ASSERT_EQ(::unsetenv("DELTACOL_ENDPOINTS"), 0);
    expect_rejected("DELTACOL_PORT_BASE", "6100x",
                    [] { NetConfig::from_env(); });
  }
  // The timeout is read when a transport is built.
  for (const std::string value : {"5s", "abc"}) {
    FdPair fds;
    expect_rejected("DELTACOL_NET_TIMEOUT_MS", value, [&] {
      SocketTransport t(0, 2, std::vector<int>{-1, fds.a});
    });
    fds.close_remaining();  // a throwing constructor owns nothing
  }
}

// --- the local shard and the barrier ---------------------------------------

TEST(SocketTransport, LocalShardIsTheRankAndBarrierSynchronizes) {
  auto [t0, t1] = loopback_pair();
  EXPECT_EQ(t0->local_shard(), 0);
  EXPECT_EQ(t1->local_shard(), 1);

  // A barrier is an allreduce_sum(0): one 24-byte frame (4-byte prefix +
  // tag, sender, seq, u64 value) to the peer, with symmetric counters.
  run_ranks(2, [&](int r) { (r == 0 ? *t0 : *t1).barrier(); });
  EXPECT_EQ(t0->frames_sent(), 1);
  EXPECT_EQ(t0->wire_bytes_sent(), 24);
  EXPECT_EQ(t0->wire_bytes_sent(), t1->wire_bytes_received());
  EXPECT_EQ(t1->wire_bytes_sent(), t0->wire_bytes_received());
  // A second barrier proves the sequence number advances on both ranks.
  run_ranks(2, [&](int r) { (r == 0 ? *t0 : *t1).barrier(); });
  EXPECT_EQ(t0->frames_sent(), 2);
  EXPECT_EQ(t1->frames_sent(), 2);
  EXPECT_EQ(t0->cross_payload_bytes(), 0);
}

// A runtime without a transport runs every shard in process: it owns no
// shard and has no transport to hand out. Over a SocketTransport it owns the
// transport's rank, and the transport's world must be the partition's shard
// count.
TEST(ShardRuntime, LocalShardIsTheTransportsRank) {
  const Graph g = cycle_graph(12);
  const ShardRuntime inproc(g, 2, nullptr);
  EXPECT_EQ(inproc.local_shard(), -1);
  EXPECT_THROW(inproc.transport(), ContractViolation);

  auto [t0, t1] = loopback_pair();
  const ShardRuntime rank0(g, 2, nullptr, std::move(t0));
  const ShardRuntime rank1(g, VertexPartition::contiguous(12, 2), nullptr,
                           std::move(t1));
  EXPECT_EQ(rank0.local_shard(), 0);
  EXPECT_EQ(rank1.local_shard(), 1);
  EXPECT_EQ(rank1.transport().num_shards(), 2);

  auto [u0, u1] = loopback_pair();
  EXPECT_THROW(ShardRuntime(g, 3, nullptr, std::move(u0)), ContractViolation);
}

// --- per-rank loading + halo exchange --------------------------------------

TEST(RankLoader, StreamedSliceMatchesInMemorySlice) {
  const std::string path = ::testing::TempDir() + "deltacol_slice_zoo.el";
  for (const auto& w : generator_zoo()) {
    save_edge_list(path, w.graph);
    const VertexPartition part =
        VertexPartition::contiguous(w.graph.num_vertices(), 2);
    for (int r = 0; r < 2; ++r) {
      const CsrSlice streamed = load_edge_list_slice(path, 2, r);
      const CsrSlice direct = slice_of(w.graph, part, r);
      EXPECT_EQ(streamed.n_global, direct.n_global) << w.name;
      EXPECT_EQ(streamed.lo, direct.lo) << w.name;
      EXPECT_EQ(streamed.hi, direct.hi) << w.name;
      EXPECT_EQ(streamed.rows.offsets, direct.rows.offsets) << w.name;
      EXPECT_EQ(streamed.rows.targets, direct.rows.targets) << w.name;
      // And the slice-derived halo is every non-owned neighbor of an owned
      // vertex, straight from the graph.
      std::set<int> expect;
      for (int v = streamed.lo; v < streamed.hi; ++v) {
        for (int u : w.graph.neighbors(v)) {
          if (!streamed.owns(u)) expect.insert(u);
        }
      }
      EXPECT_EQ(halo_of(streamed),
                std::vector<int>(expect.begin(), expect.end()))
          << w.name;
    }
  }
}

// save_edge_list never repeats an edge; a hand-written file may. This one
// (9 distinct edges, ids scrambled so the cluster layout is not the
// identity) repeats edges in both orientations and has comments and blank
// lines. Every streamed slice must merge the repeats exactly as
// load_edge_list does.
TEST(RankLoader, StreamedSliceOfRepeatedEdgesMatchesSliceOf) {
  const std::string path = ::testing::TempDir() + "deltacol_slice_repeats.el";
  {
    std::ofstream out(path);
    out << "# 7 vertices, 16 edge lines\n"
        << "7 16\n"
        << "0 4\n4 0\n\n4 2\n2 4\n4 2\n"
        << "# the far side\n"
        << "2 6\n6 1\n1 6\n   \n1 5\n5 3\n3 0\n0 3\n0 6\n6 0\n2 5\n5 2\n";
  }
  const Graph g = load_edge_list(path);
  ASSERT_EQ(g.num_edges(), 9);
  for (int num_shards : {2, 3}) {
    for (PartitionStrategy strategy :
         {PartitionStrategy::kContiguous, PartitionStrategy::kCluster}) {
      const VertexPartition part = make_partition(g, num_shards, strategy);
      for (int r = 0; r < num_shards; ++r) {
        const std::string tag = std::string(partition_strategy_name(strategy)) +
                                " S=" + std::to_string(num_shards) +
                                " r=" + std::to_string(r);
        const CsrSlice direct = slice_of(g, part, r);
        std::vector<CsrSlice> streamed{load_edge_list_slice(path, part, r)};
        if (part.is_contiguous()) {
          streamed.push_back(load_edge_list_slice(path, num_shards, r));
        }
        for (const CsrSlice& slice : streamed) {
          EXPECT_EQ(slice.n_global, direct.n_global) << tag;
          EXPECT_EQ(slice.lo, direct.lo) << tag;
          EXPECT_EQ(slice.hi, direct.hi) << tag;
          EXPECT_EQ(slice.rows.offsets, direct.rows.offsets) << tag;
          EXPECT_EQ(slice.rows.targets, direct.rows.targets) << tag;
        }
      }
    }
  }
}

// Both partitions, with in-memory and with streamed slices (the cluster
// partition with streamed slices is the repository benchmark's setup): every
// halo row arrives equal to the full graph's adjacency, in halo_of order.
TEST(RankLoader, HaloAdjacencyArrivesIntactOverTheWire) {
  const std::string path = ::testing::TempDir() + "deltacol_halo_zoo.el";
  for (const auto& w : generator_zoo()) {
    save_edge_list(path, w.graph);
    for (PartitionStrategy strategy :
         {PartitionStrategy::kContiguous, PartitionStrategy::kCluster}) {
      const VertexPartition part = make_partition(w.graph, 2, strategy);
      for (const bool streamed : {false, true}) {
        const std::string tag =
            w.name + " " + partition_strategy_name(strategy) +
            (streamed ? " streamed" : " in-memory");
        auto [t0, t1] = loopback_pair();
        run_ranks(2, [&](int r) {
          const CsrSlice mine = streamed
                                    ? load_edge_list_slice(path, part, r)
                                    : slice_of(w.graph, part, r);
          const HaloRows fetched =
              exchange_halo_adjacency(r == 0 ? *t0 : *t1, mine);
          if (fetched.ids != halo_of(mine) ||
              fetched.rows.size() != static_cast<int>(fetched.size())) {
            throw std::runtime_error("halo ids mismatch on " + tag);
          }
          for (std::size_t i = 0; i < fetched.size(); ++i) {
            std::vector<int> expect;
            for (int u : w.graph.neighbors(part.vertex_at(fetched.ids[i]))) {
              expect.push_back(part.position_of(u));
            }
            std::sort(expect.begin(), expect.end());
            const auto got = fetched.rows[static_cast<int>(i)];
            if (!std::equal(expect.begin(), expect.end(), got.begin(),
                            got.end())) {
              throw std::runtime_error("halo adjacency mismatch on " + tag);
            }
          }
        });
      }
    }
  }
}

// A hand-driven rank 1 answers rank 0's halo request on a 6-cycle (rank 0
// owns 0..2 and asks for 3 and 5) with a well-formed reply, then with four
// malformed ones; each malformed reply throws a WireError naming rank 1 and
// the failed check.
TEST(RankLoader, MalformedHaloRepliesNameTheFailedCheck) {
  const Graph g = cycle_graph(6);
  const CsrSlice slice0 = slice_of(g, VertexPartition::contiguous(6, 2), 0);
  const auto reply = [](std::vector<std::uint32_t> fields, bool extra_byte) {
    WireWriter w;
    for (std::uint32_t f : fields) w.put_u32(f);
    if (extra_byte) w.put_u8(0);
    return w.take();
  };
  // Runs rank 0's exchange against `bytes` as rank 1's reply; returns
  // rank 0's error ("" when the exchange succeeds) and its result.
  const auto drive = [&](const WireBuf& bytes, HaloRows* got) {
    auto [t0, t1] = loopback_pair();
    std::string error;
    run_ranks(2, [&](int r) {
      if (r == 0) {
        try {
          *got = exchange_halo_adjacency(*t0, slice0);
        } catch (const WireError& e) {
          error = e.what();
        }
        return;
      }
      const std::vector<std::int64_t> zeros(2, 0);
      std::vector<WireBuf> request(2);
      request[0] = reply({}, false);  // rank 1 asks for nothing
      t1->exchange_owned(std::move(request), zeros, zeros);
      std::vector<WireBuf> answer(2);
      answer[0] = bytes;
      t1->exchange_owned(std::move(answer), zeros, zeros);
    });
    return error;
  };

  // count, degrees, then the adjacency: 3 ~ {2, 4} and 5 ~ {0, 4}.
  HaloRows good;
  EXPECT_EQ(drive(reply({2, 2, 2, 2, 4, 0, 4}, false), &good), "");
  EXPECT_EQ(good.ids, (std::vector<int>{3, 5}));
  EXPECT_EQ(good.rows.offsets, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(good.rows.targets, (std::vector<int>{2, 4, 0, 4}));

  struct Fault {
    std::string check;
    WireBuf bytes;
  };
  const std::vector<Fault> faults = {
      {"adjacency", reply({2, 2, 3, 2, 4, 0, 4}, false)},  // sum past it
      {"degree count", reply({1, 2, 2, 4}, false)},        // one for two
      {"length", reply({2, 2, 2, 2, 4, 0, 4}, true)},      // trailing byte
      {"target", reply({2, 2, 2, 2, 4, 0, 6}, false)},     // 6 is not in C6
  };
  for (const Fault& f : faults) {
    HaloRows unused;
    const std::string error = drive(f.bytes, &unused);
    EXPECT_NE(error.find("halo reply from rank 1"), std::string::npos)
        << f.check << ": " << error;
    EXPECT_NE(error.find(f.check + " check failed"), std::string::npos)
        << f.check << ": " << error;
  }
}

// --- the exchange primitive --------------------------------------------------

TEST(SocketTransport, ExchangeOwnedMovesOnlyOffDiagonalSlots) {
  auto [t0, t1] = loopback_pair();
  std::vector<SocketTransport::OwnedExchange> got(2);
  run_ranks(2, [&](int r) {
    // Rank r addresses one payload to the other rank; the local entry is
    // empty (the contract: local messages never cross the wire).
    std::vector<WireBuf> to_peers(2);
    to_peers[1 - r] = {std::uint8_t(100 + r), std::uint8_t(200 + r)};
    std::vector<std::int64_t> counts = {10 * r + 1, 10 * r + 2};
    std::vector<std::int64_t> bits = {100 * r + 1, 100 * r + 2};
    got[static_cast<std::size_t>(r)] =
        (r == 0 ? *t0 : *t1)
            .exchange_owned(std::move(to_peers), std::move(counts),
                            std::move(bits));
  });
  for (int r = 0; r < 2; ++r) {
    const auto& ex = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(ex.slots.size(), 2u);
    // The local entry stays empty; the peer's entry carries its payload.
    EXPECT_TRUE(ex.slots[static_cast<std::size_t>(r)].empty());
    const int peer = 1 - r;
    EXPECT_EQ(ex.slots[static_cast<std::size_t>(peer)],
              (WireBuf{std::uint8_t(100 + peer), std::uint8_t(200 + peer)}));
    // The piggybacked tally rows reassemble the full S x S matrices
    // identically on both ranks.
    EXPECT_EQ(ex.slot_counts, (std::vector<std::int64_t>{1, 2, 11, 12}));
    EXPECT_EQ(ex.slot_bits, (std::vector<std::int64_t>{1, 2, 101, 102}));
  }
  // cross_payload_bytes counts exactly the 2 payload bytes each rank framed
  // to its one peer.
  EXPECT_EQ(t0->cross_payload_bytes(), 2);
  EXPECT_EQ(t1->cross_payload_bytes(), 2);

  // A non-empty local entry is a contract violation, caught before any I/O.
  std::vector<WireBuf> bad(2);
  bad[0] = {1};
  EXPECT_THROW(t0->exchange_owned(std::move(bad), {0, 0}, {0, 0}),
               ContractViolation);
}

// --- wire invariants: the frame header and the owned body -----------------
//
// Rank 0 is a real transport; the test plays rank 1 through the raw other
// end of the socketpair, writing hand-built frames. Rank 0's own frames fit
// in the socket buffer, so nobody has to drain them.

// The collective tags and frame layout of net/socket_transport.cpp: a
// (tag, sender, seq) header of three u32, then the collective's body.
constexpr std::uint32_t kOwnedTag = 0xDC0Eu;
constexpr std::uint32_t kReduceTag = 0xDC0Fu;
constexpr std::uint32_t kGatherTag = 0xDC10u;

WireBuf frame_of(std::uint32_t tag, std::uint32_t sender, std::uint32_t seq,
                 const WireBuf& body) {
  WireWriter w;
  w.put_u32(tag);
  w.put_u32(sender);
  w.put_u32(seq);
  WireBuf frame = w.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

WireBuf reduce_body(std::int64_t value) {
  WireWriter w;
  w.put_u64(static_cast<std::uint64_t>(value));
  return w.take();
}

// An owned-exchange body with an empty slot and zero tallies for a 2-rank
// world, addressed to `dest` and claiming a world of `world`.
WireBuf owned_body(std::uint32_t dest, std::uint32_t world) {
  WireWriter w;
  w.put_u32(dest);
  w.put_u32(world);
  for (int i = 0; i < 4; ++i) w.put_u64(0);  // counts and bits rows
  w.put_u32(0);                              // slot length
  return w.take();
}

// Runs `call` on rank 0 and expects a WireError naming rank 1 and `check`.
template <typename Call>
void expect_wire_error(const std::string& label, const std::string& check,
                       Call call) {
  try {
    call();
    ADD_FAILURE() << label << ": no error";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("from rank 1"), std::string::npos)
        << label << ": " << what;
    EXPECT_NE(what.find(check + " check"), std::string::npos)
        << label << ": " << what;
  }
}

TEST(SocketTransport, HeaderChecksNameThePeerAndTheCheck) {
  const VertexPartition part = VertexPartition::contiguous(6, 2);
  struct Collective {
    std::string name;
    std::uint32_t tag;
    WireBuf body;  // what a well-behaved rank 1 sends
    std::function<void(SocketTransport&)> run;
  };
  WireWriter gather;  // rank 1 owns 3 vertices
  gather.put_u32(3);
  for (int i = 0; i < 3; ++i) gather.put_u32(1);
  const std::vector<Collective> collectives = {
      {"barrier", kReduceTag, reduce_body(0),
       [](SocketTransport& t) { t.barrier(); }},
      {"allreduce_max", kReduceTag, reduce_body(9),
       [](SocketTransport& t) { t.allreduce_max(5); }},
      {"gather_colors", kGatherTag, gather.take(),
       [&part](SocketTransport& t) {
         std::vector<int> colors(6, 0);
         t.gather_colors(part, colors);
       }},
      {"exchange_owned", kOwnedTag, owned_body(0, 2),
       [](SocketTransport& t) { exchange_nothing(t); }},
  };
  struct Fault {
    std::string check;
    bool wrong_tag;
    std::uint32_t sender;
    std::uint32_t seq;
  };
  // Rank 0 completes one barrier first, so it expects seq 1 and a frame
  // with seq 0 is a stale one from the step before.
  const std::vector<Fault> faults = {
      {"tag", true, 1, 1}, {"sender", false, 0, 1}, {"seq", false, 1, 0}};
  for (const Collective& c : collectives) {
    for (const Fault& f : faults) {
      FdPair fds;
      SocketTransport rank0(0, 2, std::vector<int>{-1, fds.a});
      fds.a = -1;
      write_frame(fds.b, frame_of(kReduceTag, 1, 0, reduce_body(0)));
      rank0.barrier();
      const std::uint32_t tag =
          f.wrong_tag ? (c.tag == kGatherTag ? kReduceTag : kGatherTag)
                      : c.tag;
      write_frame(fds.b, frame_of(tag, f.sender, f.seq, c.body));
      expect_wire_error(c.name + "/" + f.check, f.check,
                        [&] { c.run(rank0); });
      fds.close_remaining();
    }
  }
}

TEST(SocketTransport, ExchangeOwnedRejectsAnotherDestinationOrWorld) {
  struct Fault {
    std::string check;
    std::uint32_t dest;
    std::uint32_t world;
  };
  for (const Fault& f :
       {Fault{"destination", 1, 2}, Fault{"world", 0, 3}}) {
    FdPair fds;
    SocketTransport rank0(0, 2, std::vector<int>{-1, fds.a});
    fds.a = -1;
    write_frame(fds.b, frame_of(kOwnedTag, 1, 0, owned_body(f.dest, f.world)));
    expect_wire_error(f.check, f.check, [&] { exchange_nothing(rank0); });
    fds.close_remaining();
  }
}

// Two real ranks out of step by a whole collective: each reads the other's
// frame, fails the tag check, and names the other rank.
TEST(SocketTransport, RanksRunningDifferentCollectivesBothThrow) {
  auto [t0, t1] = loopback_pair();
  const VertexPartition part = VertexPartition::contiguous(6, 2);
  std::vector<std::string> errors(2);
  run_ranks(2, [&](int r) {
    try {
      if (r == 0) {
        t0->allreduce_sum(1);
      } else {
        std::vector<int> colors(6, 0);
        t1->gather_colors(part, colors);
      }
    } catch (const WireError& e) {
      errors[static_cast<std::size_t>(r)] = e.what();
    }
  });
  EXPECT_NE(errors[0].find("from rank 1"), std::string::npos) << errors[0];
  EXPECT_NE(errors[0].find("tag check"), std::string::npos) << errors[0];
  EXPECT_NE(errors[1].find("from rank 0"), std::string::npos) << errors[1];
  EXPECT_NE(errors[1].find("tag check"), std::string::npos) << errors[1];
}

// --- multi-machine hardening (DELTACOL_NET_TIMEOUT_MS) ---------------------

TEST(SocketTransport, RendezvousTimesOutWhenAPeerNeverDials) {
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", "300");
  // Rank 0 of a 2-rank cluster: it listens and waits for rank 1's dial,
  // which never comes. Without the timeout this would hang forever.
  bool ran = false;
  for (int attempt = 0; attempt < 5 && !ran; ++attempt) {
    const int port_base =
        23000 + static_cast<int>((::getpid() * 7 + attempt * 131) % 30000);
    NetConfig cfg;
    cfg.rank = 0;
    cfg.world = 2;
    cfg.endpoints = NetConfig::localhost_endpoints(2, port_base);
    try {
      SocketTransport t(cfg);
      FAIL() << "rendezvous succeeded with no peer?";
    } catch (const WireError& e) {
      const std::string what = e.what();
      if (what.find("bind") != std::string::npos) continue;  // port taken
      ran = true;
      EXPECT_NE(what.find("timed out"), std::string::npos) << what;
      EXPECT_NE(what.find("to dial"), std::string::npos) << what;
    }
  }
  if (!ran) GTEST_SKIP() << "no free port found for the listener";
}

TEST(SocketTransport, ConnectBudgetBoundedByEnvTimeout) {
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", "300");
  // Rank 1 dials rank 0's endpoint, where nothing listens: the env budget
  // replaces the 20 s default, so this fails in ~300 ms.
  bool ran = false;
  for (int attempt = 0; attempt < 5 && !ran; ++attempt) {
    const int port_base =
        23000 + static_cast<int>((::getpid() * 13 + attempt * 173) % 30000);
    NetConfig cfg;
    cfg.rank = 1;
    cfg.world = 2;
    cfg.endpoints = NetConfig::localhost_endpoints(2, port_base);
    try {
      SocketTransport t(cfg);
      FAIL() << "connect succeeded with no listener?";
    } catch (const WireError& e) {
      const std::string what = e.what();
      if (what.find("bind") != std::string::npos) continue;  // port taken
      ran = true;
      EXPECT_NE(what.find("could not connect"), std::string::npos) << what;
    }
  }
  if (!ran) GTEST_SKIP() << "no free port found for the listener";
}

TEST(SocketTransport, SilentPeerMidExchangeNamesTheRank) {
  // The timeout is read at construction: set it before building the pair.
  EnvGuard guard("DELTACOL_NET_TIMEOUT_MS", "300");
  auto [t0, t1] = loopback_pair();
  // Rank 0's tiny frame fits in the kernel buffer, so its send completes;
  // rank 1 never writes, so the read times out and names the silent peer.
  try {
    exchange_nothing(*t0);
    FAIL() << "exchange completed against a silent peer?";
  } catch (const WireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
  }
}

// Engine-level peer loss: rank 1's transport is destroyed before the run,
// so rank 0's first exchange meets a closed connection. Luby must fail with
// a WireError naming rank 1 — never hang — whether or not a network
// timeout is configured.
TEST(SocketTransport, LubyOnALostPeerThrowsNamingTheRank) {
  const auto zoo = generator_zoo();
  const Graph& g = zoo.front().graph;
  for (const bool with_timeout : {false, true}) {
    std::optional<EnvGuard> guard;
    if (with_timeout) guard.emplace("DELTACOL_NET_TIMEOUT_MS", "300");
    auto [t0, t1] = loopback_pair();
    ShardRuntime rank0(g, 2, nullptr, std::move(t0));
    t1.reset();
    Rng rng(7);
    RoundLedger ledger;
    try {
      luby_mis_message_passing(g, rng, ledger, "luby", nullptr, &rank0);
      FAIL() << "Luby completed without its peer? timeout=" << with_timeout;
    } catch (const WireError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    }
  }
}

// --- the headline differential ---------------------------------------------

struct LubyRun {
  std::vector<bool> mis;
  std::int64_t ledger_total = 0;
  std::int64_t total_bits = 0;
  std::int64_t cross_bits = 0;
  std::int64_t total_messages = 0;
  std::int64_t rounds_recorded = 0;
};

LubyRun run_luby(const Graph& g, ShardRuntime& runtime,
                 std::int64_t congest_bits) {
  Rng rng(7);
  RoundLedger ledger;
  if (congest_bits > 0) ledger.set_congest_bits(congest_bits);
  LubyRun out;
  out.mis = luby_mis_message_passing(g, rng, ledger, "luby", nullptr, &runtime);
  out.ledger_total = ledger.total();
  out.total_bits = runtime.total_bits();
  out.cross_bits = runtime.cross_shard_bits();
  out.total_messages = runtime.total_messages();
  out.rounds_recorded = runtime.rounds_recorded();
  return out;
}

// A full mesh of `world` pre-connected rank transports: one socketpair per
// pair of ranks.
std::vector<std::unique_ptr<SocketTransport>> socket_mesh(int world) {
  std::vector<std::vector<int>> fds(
      static_cast<std::size_t>(world),
      std::vector<int>(static_cast<std::size_t>(world), -1));
  for (int a = 0; a < world; ++a) {
    for (int b = a + 1; b < world; ++b) {
      FdPair pair;
      fds[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = pair.a;
      fds[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = pair.b;
    }
  }
  std::vector<std::unique_ptr<SocketTransport>> out;
  for (int r = 0; r < world; ++r) {
    out.push_back(std::make_unique<SocketTransport>(
        r, world, fds[static_cast<std::size_t>(r)]));
  }
  return out;
}

// Real ranks — owned-only state, one edge frame per peer per round, the
// end-of-run gather — versus the in-process run at S = world, for two and
// three ranks. Every observable (MIS, ledger, bit/message counters, the
// full per-slot matrices) must be bit-identical, and each rank's measured
// cross payload must equal its closed form from the golden's counters: per
// engine round and peer one presence bitmap of ceil(cross edges to that
// peer / 8) bytes, per message to a peer Luby's 9 payload bytes — no
// addressing.
TEST(SocketTransport, LubyBitIdenticalToInProcessAcrossTheZoo) {
  constexpr std::int64_t kLubyPayloadBytes = 9;  // ceil(1/8) + ceil(64/8)
  for (const int world : {2, 3}) {
    for (const auto& w : generator_zoo()) {
      for (std::int64_t bits : {std::int64_t{0}, std::int64_t{64}}) {
        const std::string at = w.name + " B=" + std::to_string(bits) +
                               " world=" + std::to_string(world);
        // Golden: the in-process sharded run at S = world.
        ShardRuntime golden_rt(w.graph, world, nullptr);
        const LubyRun golden = run_luby(w.graph, golden_rt, bits);

        // Distributed: one ShardRuntime per rank over its end of the mesh,
        // all ranks running concurrently.
        std::vector<std::unique_ptr<ShardRuntime>> rts;
        for (auto& t : socket_mesh(world)) {
          rts.push_back(std::make_unique<ShardRuntime>(w.graph, world, nullptr,
                                                       std::move(t)));
        }
        std::vector<LubyRun> per_rank(static_cast<std::size_t>(world));
        run_ranks(world, [&](int r) {
          per_rank[static_cast<std::size_t>(r)] =
              run_luby(w.graph, *rts[static_cast<std::size_t>(r)], bits);
        });

        for (int r = 0; r < world; ++r) {
          const LubyRun& got = per_rank[static_cast<std::size_t>(r)];
          const std::string rank = at + " rank " + std::to_string(r);
          EXPECT_EQ(got.mis, golden.mis) << rank;
          EXPECT_EQ(got.ledger_total, golden.ledger_total) << rank;
          EXPECT_EQ(got.total_bits, golden.total_bits) << rank;
          EXPECT_EQ(got.cross_bits, golden.cross_bits) << rank;
          EXPECT_EQ(got.total_messages, golden.total_messages) << rank;
          EXPECT_EQ(got.rounds_recorded, golden.rounds_recorded) << rank;
          std::int64_t expected_payload = 0;
          for (int d = 0; d < world; ++d) {
            if (d == r) continue;
            expected_payload +=
                golden.rounds_recorded *
                    ((golden_rt.edges_between(r, d) + 7) / 8) +
                golden_rt.slot_messages(r, d) * kLubyPayloadBytes;
          }
          const ShardRuntime& rt = *rts[static_cast<std::size_t>(r)];
          EXPECT_EQ(rt.transport().cross_payload_bytes(), expected_payload)
              << rank;
          // Per-slot counters too: every rank saw exactly the messages the
          // in-process run sent.
          for (int a = 0; a < world; ++a) {
            for (int b = 0; b < world; ++b) {
              EXPECT_EQ(rts[static_cast<std::size_t>(r)]->slot_messages(a, b),
                        golden_rt.slot_messages(a, b))
                  << rank;
              EXPECT_EQ(rts[static_cast<std::size_t>(r)]->slot_bits(a, b),
                        golden_rt.slot_bits(a, b))
                  << rank;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace deltacol
