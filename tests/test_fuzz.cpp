// Randomized end-to-end fuzzing: random graph family x random algorithm x
// random options (including random CONGEST caps and thread counts). The
// invariant that must survive everything: delta_color returns a proper
// Delta-coloring (or throws ContractViolation for inputs it documents as
// rejected) — and the shard runtime's byte counters stay consistent with
// the messages actually posted.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/api.h"
#include "graph/partition.h"
#include "graph/structure.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/ops.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "net/rank_loader.h"
#include "net/wire_codec.h"
#include "runtime/mailbox.h"
#include "runtime/sync_engine.h"
#include "runtime/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

Graph random_workload(Rng& rng) {
  switch (rng.next_int(0, 6)) {
    case 0: {
      int n = rng.next_int(20, 300);
      int d = rng.next_int(3, 6);
      if ((n * d) % 2 == 1) ++n;
      return random_regular(n, d, rng);
    }
    case 1:
      return random_graph_max_degree(rng.next_int(20, 300),
                                     rng.next_int(3, 7), 1.5, rng);
    case 2:
      return random_tree(rng.next_int(20, 300), rng.next_int(3, 5), rng);
    case 3:
      return random_gallai_tree(rng.next_int(20, 150), rng.next_int(3, 5), rng);
    case 4:
      return grid_graph(rng.next_int(3, 12), rng.next_int(3, 12),
                        rng.next_bool(0.5));
    case 5: {
      // Disconnected mixtures.
      Graph g = random_tree(rng.next_int(10, 60), 4, rng);
      g = disjoint_union(g, grid_graph(4, rng.next_int(3, 8), true));
      if (rng.next_bool(0.5)) g = disjoint_union(g, clique_graph(3));
      return g;
    }
    default:
      return clique_ring(rng.next_int(2, 6), rng.next_int(3, 5));
  }
}

DeltaColoringOptions random_options(Rng& rng) {
  DeltaColoringOptions opt;
  opt.seed = rng.next_u64();
  opt.dcc_radius = rng.next_int(1, 3);
  opt.small_variant_radius_cap = rng.next_int(2, 5);
  opt.backoff = rng.next_bool(0.3) ? rng.next_int(3, 7) : -1;
  if (rng.next_bool(0.3)) {
    opt.selection_prob = rng.next_double() * 0.2;
  }
  opt.use_paper_constants = rng.next_bool(0.2);
  opt.list_engine = rng.next_bool(0.5) ? ListEngine::kDeterministic
                                       : ListEngine::kRandomized;
  // Random thread counts and CONGEST caps: both are wall-clock /
  // accounting knobs that must never change what delta_color computes.
  const int shapes[] = {1, 2, 8};
  opt.num_threads = shapes[rng.next_int(0, 2)];
  if (rng.next_bool(0.5)) {
    opt.congest_bits = rng.next_int(1, 512);  // tight, uneven caps
  }
  // Half the runs also perturb the schedule (jittered chunk counts,
  // injected stalls), which must not change the result either.
  if (rng.next_bool(0.5)) opt.perturb_salt = rng.next_u64();
  return opt;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, EveryRunYieldsValidColoringOrDocumentedRejection) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 17);
  for (int trial = 0; trial < 12; ++trial) {
    const Graph g = random_workload(rng);
    const int delta = g.max_degree();
    Algorithm alg = static_cast<Algorithm>(rng.next_int(0, 4));
    const DeltaColoringOptions opt = random_options(rng);
    const bool must_reject =
        delta < 3 || (alg == Algorithm::kRandomizedLarge && delta < 4);
    if (must_reject) {
      EXPECT_THROW(delta_color(g, alg, opt), ContractViolation);
      continue;
    }
    // (Delta+1)-clique components are rejected by contract.
    bool has_big_clique = false;
    for (const auto& comp : connected_components(g).vertex_sets()) {
      const auto sub = induced_subgraph(g, comp);
      if (is_clique(sub.graph) && sub.graph.num_vertices() == delta + 1) {
        has_big_clique = true;
      }
    }
    if (has_big_clique) {
      EXPECT_THROW(delta_color(g, alg, opt), ContractViolation);
      continue;
    }
    const auto res = delta_color(g, alg, opt);
    EXPECT_NO_THROW(validate_delta_coloring(g, res.coloring, delta))
        << algorithm_name(alg) << " trial " << trial;
    EXPECT_GE(res.ledger.total(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(1, 13));

// Same-seed stress: 8 back-to-back runs of one (graph, algorithm, options)
// triple must produce 8 bit-identical results, even with schedule
// perturbation on (the salt moves wall-clock only).
TEST(FuzzStress, EightSameSeedRunsAreBitIdentical) {
  Rng rng(0x57E55);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = random_workload(rng);
    if (g.max_degree() < 3) continue;
    bool has_big_clique = false;
    for (const auto& comp : connected_components(g).vertex_sets()) {
      const auto sub = induced_subgraph(g, comp);
      if (is_clique(sub.graph) &&
          sub.graph.num_vertices() == g.max_degree() + 1) {
        has_big_clique = true;
      }
    }
    if (has_big_clique) continue;
    const Algorithm alg =
        g.max_degree() >= 4 ? Algorithm::kRandomizedLarge
                            : Algorithm::kRandomizedSmall;
    DeltaColoringOptions opt;
    opt.seed = rng.next_u64();
    opt.num_threads = 8;
    opt.perturb_salt = rng.next_u64();

    const auto ref = delta_color(g, alg, opt);
    for (int run = 0; run < 8; ++run) {
      const auto res = delta_color(g, alg, opt);
      EXPECT_EQ(res.coloring, ref.coloring)
          << "trial " << trial << " run " << run;
      EXPECT_EQ(res.ledger.total(), ref.ledger.total())
          << "trial " << trial << " run " << run;
    }
  }
}

// CONGEST byte-counter consistency under fuzz: for random graphs, shard
// counts and thread counts, the ShardRuntime's wire-bit counters must equal
// message_bits times the message counts, split per slot exactly as the
// runtime counts the edges between shards — and the charged rounds must be
// the engine's message_round_cost of the actual heaviest edge load.
TEST_P(FuzzTest, ByteCountersConsistentWithPostedMessages) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 3);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = random_workload(rng);
    const int shapes[] = {1, 2, 8};
    const int num_shards = shapes[rng.next_int(0, 2)];
    const int threads = shapes[rng.next_int(0, 2)];
    const std::int64_t B = rng.next_bool(0.5) ? rng.next_int(1, 128) : 0;
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
    ShardRuntime shards(g, num_shards, pool_ptr);

    // One flood round: every node sends its id (32 bits) to every neighbor,
    // so every directed edge carries exactly one 32-bit message.
    RoundLedger ledger;
    ledger.set_congest_bits(B);
    using Engine = SyncEngine<int, std::uint32_t>;
    Engine engine(g, ledger, "flood", pool_ptr, &shards);
    engine.round(
        [](int v, const int&, Engine::Ports& out) {
          for (int p = 0; p < out.size(); ++p) {
            out.send(p, static_cast<std::uint32_t>(v));
          }
        },
        [](int, int&, const Engine::Inbox&) {});

    const std::string label = "trial " + std::to_string(trial) + " S=" +
                              std::to_string(num_shards) + " T=" +
                              std::to_string(threads) + " B=" +
                              std::to_string(B);
    EXPECT_EQ(shards.total_messages(), 2 * g.num_edges()) << label;
    EXPECT_EQ(shards.total_bits(), 32 * shards.total_messages()) << label;
    for (int s = 0; s < shards.num_shards(); ++s) {
      for (int d = 0; d < shards.num_shards(); ++d) {
        EXPECT_EQ(shards.slot_bits(s, d), 32 * shards.edges_between(s, d))
            << label;
      }
    }
    EXPECT_EQ(shards.cross_shard_bits(), 32 * shards.cross_shard_messages())
        << label;
    // Heaviest edge load is exactly one 32-bit message (all workloads have
    // at least one edge), so the round charge is pinned.
    ASSERT_GE(g.num_edges(), 1) << label;
    EXPECT_EQ(ledger.total(), ledger.message_round_cost(32)) << label;

    // The Luby MIS through the same runtime: every message is 65 bits
    // wide, so the byte counters factor exactly — and the result must
    // still be a valid MIS under any (S, T, B).
    shards.reset_counters();
    Rng luby_rng(rng.next_u64());
    RoundLedger luby_ledger;
    luby_ledger.set_congest_bits(B);
    const auto mis = luby_mis_message_passing(g, luby_rng, luby_ledger, "mis",
                                              pool_ptr, &shards);
    EXPECT_TRUE(is_mis(g, mis)) << label;
    EXPECT_EQ(shards.total_bits(),
              kLubyMessageBits * shards.total_messages())
        << label;
    EXPECT_EQ(shards.cross_shard_bits(),
              kLubyMessageBits * shards.cross_shard_messages())
        << label;
  }
}

}  // namespace

// --- wire-codec fuzz -------------------------------------------------------
//
// A WireCodec's bytes (net/wire_codec.h) must stay the twin of its charged
// bits: for every registered type, encoded length == the sum of
// ceil(field_bits / 8) over its fields, and decode(encode(x)) == x. A
// custom struct registered the luby_sync.cpp way is fuzzed too.

namespace wire_fuzz {

struct FuzzMsg {
  bool flag = false;
  std::uint32_t a = 0;
  std::int64_t b = 0;
  std::vector<std::uint32_t> tail;
  bool operator==(const FuzzMsg&) const = default;
};

}  // namespace wire_fuzz

template <>
struct WireCodec<wire_fuzz::FuzzMsg> {
  static std::int64_t bits(const wire_fuzz::FuzzMsg& m) {
    return 1 + 32 + 64 + message_bits(m.tail);
  }
  static void encode(const wire_fuzz::FuzzMsg& m, WireWriter& w) {
    WireCodec<bool>::encode(m.flag, w);
    WireCodec<std::uint32_t>::encode(m.a, w);
    WireCodec<std::int64_t>::encode(m.b, w);
    WireCodec<std::vector<std::uint32_t>>::encode(m.tail, w);
  }
  static wire_fuzz::FuzzMsg decode(WireReader& r) {
    wire_fuzz::FuzzMsg m;
    m.flag = WireCodec<bool>::decode(r);
    m.a = WireCodec<std::uint32_t>::decode(r);
    m.b = WireCodec<std::int64_t>::decode(r);
    m.tail = WireCodec<std::vector<std::uint32_t>>::decode(r);
    return m;
  }
};

namespace {

// Expected on-wire bytes, per-field ceil(bits / 8) — the mirror of the
// codec registry, computed independently of it.
template <typename T>
struct WireBytes;
template <>
struct WireBytes<bool> {
  static std::int64_t of(const bool&) { return 1; }
};
template <>
struct WireBytes<std::uint32_t> {
  static std::int64_t of(const std::uint32_t&) { return 4; }
};
template <>
struct WireBytes<std::int32_t> {
  static std::int64_t of(const std::int32_t&) { return 4; }
};
template <>
struct WireBytes<std::uint64_t> {
  static std::int64_t of(const std::uint64_t&) { return 8; }
};
template <>
struct WireBytes<std::int64_t> {
  static std::int64_t of(const std::int64_t&) { return 8; }
};
template <typename T>
struct WireBytes<std::vector<T>> {
  static std::int64_t of(const std::vector<T>& v) {
    std::int64_t total = 4;
    for (const T& x : v) total += WireBytes<T>::of(x);
    return total;
  }
};
template <>
struct WireBytes<wire_fuzz::FuzzMsg> {
  static std::int64_t of(const wire_fuzz::FuzzMsg& m) {
    return 1 + 4 + 8 + WireBytes<decltype(m.tail)>::of(m.tail);
  }
};

// One round trip: encode, check the per-field length law (and, when the
// type has no sub-byte fields, the exact bits/8 relation to message_bits),
// decode, compare payloads, and require the reader to be fully consumed.
template <typename T>
void check_round_trip(const T& value, std::int64_t sub_byte_fields) {
  WireWriter w;
  WireCodec<T>::encode(value, w);
  const WireBuf bytes = w.take();
  ASSERT_EQ(static_cast<std::int64_t>(bytes.size()), WireBytes<T>::of(value));
  // Each bool field rounds 1 bit up to 1 byte (+7 bits); everything else is
  // byte-aligned, so bytes == (bits + 7 * #bools) / 8 exactly.
  ASSERT_EQ(static_cast<std::int64_t>(bytes.size()) * 8,
            message_bits(value) + 7 * sub_byte_fields);
  WireReader r(bytes);
  const T back = WireCodec<T>::decode(r);
  ASSERT_TRUE(r.done());
  ASSERT_EQ(back, value);
}

wire_fuzz::FuzzMsg random_fuzz_msg(Rng& rng) {
  wire_fuzz::FuzzMsg m;
  m.flag = rng.next_bool(0.5);
  m.a = static_cast<std::uint32_t>(rng.next_u64());
  m.b = static_cast<std::int64_t>(rng.next_u64());
  const int len = rng.next_int(0, 8);
  for (int i = 0; i < len; ++i) {
    m.tail.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  return m;
}

TEST(WireCodecFuzz, EveryRegisteredTypeRoundTripsAtPerFieldRounding) {
  Rng rng(0xC0DEC);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::uint64_t raw = rng.next_u64();
    check_round_trip(raw % 2 == 0, 1);                             // bool
    check_round_trip(static_cast<std::uint32_t>(raw), 0);          // u32
    check_round_trip(static_cast<std::int32_t>(raw), 0);           // i32
    check_round_trip(raw, 0);                                      // u64
    check_round_trip(static_cast<std::int64_t>(raw), 0);           // i64
    std::vector<std::uint32_t> flat;
    for (int i = rng.next_int(0, 12); i > 0; --i) {
      flat.push_back(static_cast<std::uint32_t>(rng.next_u64()));
    }
    check_round_trip(flat, 0);
    std::vector<std::vector<std::uint32_t>> nested;
    for (int i = rng.next_int(0, 4); i > 0; --i) {
      nested.push_back(flat);
      nested.back().resize(static_cast<std::size_t>(
          rng.next_int(0, static_cast<int>(flat.size()))));
    }
    check_round_trip(nested, 0);
    // A custom two-trait struct, like every engine message type.
    const wire_fuzz::FuzzMsg msg = random_fuzz_msg(rng);
    check_round_trip(msg, 1);
  }
}

TEST(WireCodecFuzz, TruncatedOrDirtyPayloadsNeverDecodeCleanly) {
  Rng rng(0xBADBEEF);
  for (int iter = 0; iter < 500; ++iter) {
    const wire_fuzz::FuzzMsg msg = random_fuzz_msg(rng);
    WireWriter w;
    WireCodec<wire_fuzz::FuzzMsg>::encode(msg, w);
    const WireBuf bytes = w.take();
    // Any strict prefix either throws or leaves the reader short (the
    // caller-visible "not done" signal decode_edge_frame turns into
    // WireError).
    const std::size_t cut =
        static_cast<std::size_t>(rng.next_int(0, static_cast<int>(bytes.size()) - 1));
    WireBuf torn(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      WireReader r(torn);
      (void)WireCodec<wire_fuzz::FuzzMsg>::decode(r);
      ADD_FAILURE() << "decode of a " << cut << "/" << bytes.size()
                    << "-byte prefix did not throw";
    } catch (const WireError&) {
    }
    // A bool byte outside {0,1} is rejected, not coerced.
    WireBuf dirty = bytes;
    dirty[0] = static_cast<std::uint8_t>(rng.next_int(2, 255));
    WireReader r(dirty);
    EXPECT_THROW((void)WireCodec<wire_fuzz::FuzzMsg>::decode(r), WireError);
  }
}

TEST(WireCodecFuzz, EdgeFramesRoundTripAndRejectEveryCorruption) {
  Rng rng(0x51075);
  using FuzzMsg = wire_fuzz::FuzzMsg;
  for (int iter = 0; iter < 300; ++iter) {
    // A random presence pattern over k cross edges (k spans whole and
    // partial bitmap bytes, including k = 0).
    const std::size_t k = static_cast<std::size_t>(rng.next_int(0, 40));
    const double density = rng.next_int(0, 4) / 4.0;
    std::vector<std::optional<FuzzMsg>> edges(k);
    std::int64_t expect = static_cast<std::int64_t>((k + 7) / 8);
    for (auto& e : edges) {
      if (rng.next_bool(density)) {
        e = random_fuzz_msg(rng);
        expect += WireBytes<FuzzMsg>::of(*e);
      }
    }
    const WireBuf bytes = encode_edge_frame<FuzzMsg>(
        k, [&](std::size_t j) { return edges[j] ? &*edges[j] : nullptr; });
    // Frame length law: the bitmap plus the present payloads, no ids.
    ASSERT_EQ(static_cast<std::int64_t>(bytes.size()), expect);
    std::vector<std::optional<FuzzMsg>> back(k);
    std::size_t last = 0;
    decode_edge_frame<FuzzMsg>(bytes, k, [&](std::size_t j, FuzzMsg m) {
      EXPECT_TRUE(j >= last && !back[j]) << "edges delivered out of order";
      last = j;
      back[j] = std::move(m);
    });
    ASSERT_EQ(back, edges);

    const auto decodes = [&](const WireBuf& frame) {
      decode_edge_frame<FuzzMsg>(frame, k, [](std::size_t, FuzzMsg) {});
    };
    // Every truncation throws: a short bitmap or a torn payload.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const WireBuf torn(bytes.begin(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_THROW(decodes(torn), WireError) << "cut at " << cut;
    }
    // A trailing byte throws.
    WireBuf longer = bytes;
    longer.push_back(0);
    EXPECT_THROW(decodes(longer), WireError);
    // A set bit past the k edges throws.
    if (k % 8 != 0) {
      WireBuf marked = bytes;
      marked[k / 8] |= static_cast<std::uint8_t>(
          1u << rng.next_int(static_cast<int>(k % 8), 7));
      EXPECT_THROW(decodes(marked), WireError);
    }
  }
}

// --- edge-list loader fuzz -------------------------------------------------
//
// Each input must load or throw ContractViolation in read_edge_list and in
// load_edge_list_slice at S ∈ {1, 2, 3} alike, and accepted slices must tile
// the full graph's adjacency. Headers asking for more than 10^4 vertices are
// skipped: the fuzz targets parsing, not allocation. Returns "accepted".
bool check_loaders(const std::string& text) {
  struct TooLarge {};
  try {
    std::istringstream in(text);
    scan_edge_list(
        in,
        [](int n, std::int64_t) {
          if (n > 10'000) throw TooLarge{};
        },
        [](int, int) {});
  } catch (const TooLarge&) {
    return false;
  } catch (const ContractViolation&) {
  }
  std::optional<Graph> g;
  try {
    std::istringstream in(text);
    g = read_edge_list(in);
  } catch (const ContractViolation&) {
  }
  for (int S : {1, 2, 3}) {
    int next_lo = 0;
    for (int shard = 0; shard < S; ++shard) {
      std::istringstream in(text);
      std::optional<CsrSlice> slice;
      try {
        slice = load_edge_list_slice(in, S, shard);
      } catch (const ContractViolation&) {
      }
      EXPECT_EQ(slice.has_value(), g.has_value()) << S << ":\n" << text;
      if (!slice || !g) continue;
      EXPECT_EQ(slice->lo, next_lo);
      next_lo = slice->hi;
      for (int v = slice->lo; v < slice->hi; ++v) {
        const auto got = slice->neighbors(v);
        const auto want = g->neighbors(v);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "S=" << S << " v=" << v << ":\n" << text;
      }
    }
    if (g) {
      EXPECT_EQ(next_lo, g->num_vertices()) << "S=" << S;
    }
  }
  return g.has_value();
}

// Mostly edge-list-shaped bytes, with the odd arbitrary one.
char fuzz_byte(Rng& rng) {
  static constexpr char kAlphabet[] = "0123456789  \t\n\n\r#-+.x";
  if (rng.next_bool(0.1)) return static_cast<char>(rng.next_int(0, 255));
  return kAlphabet[rng.next_int(0, static_cast<int>(sizeof kAlphabet) - 2)];
}

TEST(LoaderFuzz, RandomAndMutatedEdgeListsLoadOrThrowAlike) {
  Rng rng(0x10AD);
  int accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text;
    if (iter % 2 == 0) {  // random bytes, half behind a plausible header
      if (rng.next_bool(0.5)) text = std::to_string(rng.next_int(0, 9)) + " 3\n";
      for (int i = rng.next_int(0, 60); i > 0; --i) text += fuzz_byte(rng);
    } else {  // a valid list with 1-3 byte edits
      std::ostringstream os;
      write_edge_list(os, random_graph_max_degree(rng.next_int(2, 20),
                                                  rng.next_int(2, 5), 1.5, rng));
      text = os.str();
      for (int k = rng.next_int(1, 3); k > 0 && !text.empty(); --k) {
        const auto at = static_cast<std::size_t>(
            rng.next_int(0, static_cast<int>(text.size()) - 1));
        switch (rng.next_int(0, 3)) {
          case 0: text[at] = fuzz_byte(rng); break;
          case 1: text.insert(at, 1, fuzz_byte(rng)); break;
          case 2: text.erase(at, 1); break;
          default: text.resize(at); break;
        }
      }
    }
    accepted += check_loaders(text) ? 1 : 0;
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 100);
  EXPECT_LT(accepted, 3800);
}

}  // namespace
}  // namespace deltacol
