/// \file
/// Exchange policy of the distributed runtime: how one round's envelopes
/// move between ranks. The runtime has one execution discipline — every
/// merge is shard-major and stable-sorted, every fan-out index-private — so
/// results are bit-identical for every (threads, shards, partition, policy)
/// shape; the policy only decides what crosses the wire.
#pragma once

#include <cstring>

namespace deltacol {

/// How a distributed run moves one round's envelopes between ranks
/// (ROADMAP direction 1 follow-on; DESIGN.md §6 "Owner-compute").
///
/// **kReplicated** (the default, and the differential oracle): every rank
/// serializes its full mailbox row, all-gathers it, and replays the merge +
/// receive for all S shards — per-rank compute is O(n) and wire traffic is
/// O(S × total bytes), but the discipline is simple and every rank holds the
/// complete global state at all times.
///
/// **kOwnerRouted**: every rank owns only its shard's state end-to-end.
/// Only the slots addressed to *other* ranks are encoded (local-slot
/// envelopes never touch the codec), point-to-point frames replace the
/// all-gather, and merge + receive run only for the local shard — per-rank
/// work drops to O(n/S + halo) and the wire carries exactly the cross-shard
/// payload a locality partition (graph/renumber.h) leaves behind. A
/// deterministic end-of-run gather reassembles the global result on every
/// rank, bit-identical to the replicated path (the shard-major merge rule
/// makes each shard's inbox independent of other shards' local state).
/// In-process runs honor the policy too — off-diagonal slots round-trip
/// through the wire codec — so the hermetic zoo differential covers both
/// policies without sockets.
enum class ExchangePolicy {
  kReplicated,   ///< Full-row all-gather + replicated merge (the oracle).
  kOwnerRouted,  ///< Point-to-point cross slots only; rank-local merge.
};

/// Short stable identifier (logs, benches, CSV output).
inline const char* exchange_policy_name(ExchangePolicy p) {
  return p == ExchangePolicy::kOwnerRouted ? "owner" : "replicated";
}

/// Parses a CLI spelling ("replicated" or "owner"/"owner-routed") into
/// \p out; returns false (leaving \p out untouched) on anything else.
inline bool parse_exchange_policy(const char* s, ExchangePolicy* out) {
  if (std::strcmp(s, "replicated") == 0) {
    *out = ExchangePolicy::kReplicated;
    return true;
  }
  if (std::strcmp(s, "owner") == 0 || std::strcmp(s, "owner-routed") == 0) {
    *out = ExchangePolicy::kOwnerRouted;
    return true;
  }
  return false;
}

}  // namespace deltacol
