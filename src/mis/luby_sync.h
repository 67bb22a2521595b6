// Luby's MIS implemented literally on the synchronous message-passing
// engine (SyncEngine): every round each active node draws a priority, sends
// it to its neighbors, and joins when it holds the local minimum; joiners
// then notify neighbors, which deactivate.
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
class ShardRuntime;   // src/runtime/mailbox.h; nullptr = unsharded

// Wire size of one Luby message under the MessageSize convention
// (runtime/message_size.h): a 1-bit join flag plus a 64-bit priority. The
// CONGEST(B) cost of each Luby round is ceil(kLubyMessageBits / B) — tests
// pin byte counters against this constant (tests/test_message_size.cpp,
// tests/test_fuzz.cpp).
inline constexpr std::int64_t kLubyMessageBits = 65;

// `pool` routes the rounds through the ParallelSyncEngine (bit-identical
// results for any thread count; nullptr runs the serial reference path).
// `shards` (built over g) additionally routes every round through the
// partitioned mailbox/transport layer and records per-round message volume
// on it — still bit-identical for every (shards, threads) combination
// (tests/test_mailbox.cpp pins this).
std::vector<bool> luby_mis_message_passing(
    const Graph& g, Rng& rng, RoundLedger& ledger, std::string_view phase,
    ThreadPool* pool = nullptr, ShardRuntime* shards = nullptr);

}  // namespace deltacol
