// Luby's MIS implemented literally on the synchronous message-passing
// engine (runtime/sync_engine.h): every iteration each active node draws a
// priority, sends it on every port, and joins when it holds the local
// minimum; joiners then notify their neighbors, which deactivate.
//
// Functionally equivalent to mis/luby_mis (which runs the same logic over
// shared arrays and charges the same rounds); this version exists to pin
// down that the library's algorithms are genuinely message-passing
// realizable — the test suite asserts both engines produce a valid MIS and
// charge identical round counts per iteration structure.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "local/round_ledger.h"
#include "util/rng.h"

namespace deltacol {

class ThreadPool;     // src/runtime/thread_pool.h; nullptr = serial
class ShardRuntime;   // src/runtime/mailbox.h; nullptr = no runtime

// Wire size of one Luby message under the sizing convention of
// net/wire_codec.h: a 1-bit join flag plus a 64-bit priority. The
// CONGEST(B) cost of each Luby round is ceil(kLubyMessageBits / B) — tests
// pin byte counters against this constant (tests/test_message_size.cpp,
// tests/test_fuzz.cpp).
inline constexpr std::int64_t kLubyMessageBits = 65;

// `pool` runs the engine's sweeps on a thread pool (bit-identical results
// for any thread count; nullptr runs them on the calling thread). `shards`
// (built over g) records per-round message volume on the runtime and, when
// it has a transport, runs this rank's share of the rounds over it — still
// bit-identical for every (shards, threads, partition) combination (the
// frozen goldens in tests/test_mailbox.cpp pin this).
std::vector<bool> luby_mis_message_passing(
    const Graph& g, Rng& rng, RoundLedger& ledger, std::string_view phase,
    ThreadPool* pool = nullptr, ShardRuntime* shards = nullptr);

}  // namespace deltacol
