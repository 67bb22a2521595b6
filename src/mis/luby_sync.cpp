#include "mis/luby_sync.h"

#include <string>

#include "runtime/mailbox.h"
#include "runtime/sync_engine.h"
#include "util/check.h"

namespace deltacol {

namespace {

enum class NodeStatus { kActive, kInMis, kOut };

struct NodeState {
  NodeStatus status = NodeStatus::kActive;
  std::uint64_t priority = 0;
  Rng rng{0};
};

// Messages carry either a priority announcement or a join notification.
struct Msg {
  bool is_join = false;
  std::uint64_t priority = 0;
};

}  // namespace

// Wire registration (net/wire_codec.h). Charged: 1-bit flag + 64-bit
// priority, the kLubyMessageBits constant the tests pin. Encoded field by
// field: 1 byte for the sub-byte flag + 8 bytes priority = 9 bytes =
// ceil(1/8) + ceil(64/8) — the per-field rounding the fuzz suite pins.
static_assert(kLubyMessageBits == 1 + 64,
              "Luby wire format: 1-bit join flag + 64-bit priority");
template <>
struct WireCodec<Msg> {
  static std::int64_t bits(const Msg&) { return kLubyMessageBits; }
  static void encode(const Msg& m, WireWriter& w) {
    WireCodec<bool>::encode(m.is_join, w);
    WireCodec<std::uint64_t>::encode(m.priority, w);
  }
  static Msg decode(WireReader& r) {
    Msg m;
    m.is_join = WireCodec<bool>::decode(r);
    m.priority = WireCodec<std::uint64_t>::decode(r);
    return m;
  }
};

std::vector<bool> luby_mis_message_passing(const Graph& g, Rng& rng,
                                           RoundLedger& ledger,
                                           std::string_view phase,
                                           ThreadPool* pool,
                                           ShardRuntime* shards) {
  const int n = g.num_vertices();
  using Engine = SyncEngine<NodeState, Msg>;
  Engine engine(g, ledger, std::string(phase), pool, shards);
  // Distributed ranks (DESIGN.md §6): the engine holds owned-only state, so
  // every sweep below runs over its local vertices and the termination test
  // / result extraction go through the transport's deterministic
  // collectives instead of reading global state.
  const bool owner = engine.owner_local_state();

  // LOCAL-model nodes own private randomness: seed each node once from the
  // caller's stream (private coins, not communication) — serially, so the
  // per-node streams are thread-count independent. Distributed ranks
  // still advance the caller's stream n times (stream identity with every
  // other shape) but keep only their owned nodes' streams.
  for (int v = 0; v < n; ++v) {
    Rng node_rng = rng.split();
    if (engine.holds(v)) engine.state(v).rng = std::move(node_rng);
  }

  // Per-vertex sweep over the engine's vertices (v-private bodies).
  const auto sweep = [&](const auto& body) {
    pooled_for(pool, 0, engine.num_local(),
               [&](int i) { body(engine.local_vertex(i)); });
  };
  const auto count_active = [&] {
    std::int64_t active = 0;
    for (int i = 0; i < engine.num_local(); ++i) {
      if (engine.state(engine.local_vertex(i)).status == NodeStatus::kActive) {
        ++active;
      }
    }
    return owner ? shards->transport().allreduce_sum(active) : active;
  };

  std::int64_t remaining = n;
  while (remaining > 0) {
    // Private coin flips — no communication round.
    sweep([&](int v) {
      NodeState& s = engine.state(v);
      if (s.status == NodeStatus::kActive) s.priority = s.rng.next_u64();
    });
    // Round A: actives announce priorities; local minima join.
    engine.round(
        [](int, const NodeState& s, Engine::Ports& out) {
          if (s.status != NodeStatus::kActive) return;
          for (int p = 0; p < out.size(); ++p) out.send(p, {false, s.priority});
        },
        [](int v, NodeState& s, const Engine::Inbox& in) {
          if (s.status != NodeStatus::kActive) return;
          bool local_min = true;
          for (const auto& [from, msg] : in) {
            if (msg.is_join) continue;
            if (msg.priority < s.priority ||
                (msg.priority == s.priority && from < v)) {
              local_min = false;
            }
          }
          if (local_min) s.status = NodeStatus::kInMis;
        });
    // Round B: joiners notify, active neighbors drop out.
    engine.round(
        [](int, const NodeState& s, Engine::Ports& out) {
          if (s.status != NodeStatus::kInMis) return;
          for (int p = 0; p < out.size(); ++p) out.send(p, {true, 0});
        },
        [](int, NodeState& s, const Engine::Inbox& in) {
          if (s.status != NodeStatus::kActive) return;
          for (const auto& [from, msg] : in) {
            (void)from;
            if (msg.is_join) {
              s.status = NodeStatus::kOut;
              return;
            }
          }
        });
    // Termination: every rank leaves the loop on the same iteration, by
    // construction (the distributed count is a deterministic allreduce).
    remaining = count_active();
  }
  // Result extraction. Distributed ranks know only their shard's flags:
  // the deterministic end-of-run gather (SocketTransport::gather_colors)
  // reassembles the global MIS on every rank, bit-identical to the
  // in-process run.
  std::vector<int> flags(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < engine.num_local(); ++i) {
    const int v = engine.local_vertex(i);
    flags[static_cast<std::size_t>(v)] =
        engine.state(v).status == NodeStatus::kInMis ? 1 : 0;
  }
  if (owner) shards->transport().gather_colors(shards->partition(), flags);
  std::vector<bool> out(static_cast<std::size_t>(n), false);
  for (int v = 0; v < n; ++v) {
    out[static_cast<std::size_t>(v)] = flags[static_cast<std::size_t>(v)] == 1;
  }
  return out;
}

}  // namespace deltacol
