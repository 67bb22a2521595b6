/// \file
/// The TCP backend of the shard runtime: one OS process per shard/rank,
/// persistent connections, one point-to-point frame per peer per round.
///
/// `SocketTransport` implements the distributed half of the `Transport`
/// contract (runtime/mailbox.h):
///
///   * `local_shard()` is this process's rank — `run_shards(body)` invokes
///     `body(rank)` and nothing else; the other ranks run their own bodies
///     in their own processes.
///   * `exchange_owned()` moves one engine round: one frame per peer
///     carrying ONLY the slot addressed to that peer (plus this rank's
///     per-slot tally row, so every rank reassembles the full S×S
///     counters), written by per-peer writer threads while this thread
///     reads the peers in rank order. Frames carry a tag and a sequence
///     number, so a rank that drifted a round (or a collective) out of step
///     fails loudly instead of merging stale slots.
///   * `allreduce_sum()` / `allreduce_max()` / `gather_colors()` are the
///     small deterministic collectives a distributed run needs for
///     termination tests, the CONGEST max fold, and the end-of-run result
///     gather. `barrier()` is an `allreduce_sum(0)`.
///
/// **Hardening** (multi-machine runs): DELTACOL_NET_TIMEOUT_MS, read at
/// construction, bounds the rendezvous (connect retry budget AND the accept
/// wait for peers that never dial) and every per-frame read — a silent or
/// absent peer surfaces as a WireError naming the peer rank instead of
/// hanging this rank forever. Unset or <= 0 keeps the original behavior
/// (20 s connect budget, block-forever reads).
///
/// **Rendezvous.** Every rank knows the full host:port list (`NetConfig`,
/// parsed from flags or the DELTACOL_RANK / DELTACOL_WORLD /
/// DELTACOL_ENDPOINTS environment — the mpi-like launcher contract). Rank r
/// listens on its own endpoint, connects to every lower rank (with retry
/// while peers are still starting), and accepts from every higher rank; a
/// hello frame identifies the connecting rank, so the mesh is complete and
/// order-independent before the constructor returns. Sockets run with
/// TCP_NODELAY — a synchronous round trip per engine round would otherwise
/// sit out Nagle's timer thousands of times.
///
/// Tests construct the transport directly over pre-connected socketpair fds
/// (the hermetic two-ranks-in-one-process harness,
/// tests/test_socket_transport.cpp); the rendezvous path is exercised by
/// scripts/run_local_cluster.sh and the tcp-2rank CI leg.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/mailbox.h"

namespace deltacol {

/// One rank's view of the cluster: who am I, how many of us, where is
/// everyone. Endpoint i is where rank i listens.
struct NetConfig {
  int rank = -1;
  int world = 0;
  std::vector<std::pair<std::string, int>> endpoints;  // (host, port) per rank

  /// Parses "host:port,host:port,..." (one endpoint per rank, in rank
  /// order). Throws ContractViolation on malformed input.
  static std::vector<std::pair<std::string, int>> parse_endpoints(
      const std::string& spec);

  /// Builds the all-localhost cluster every rank list for single-machine
  /// runs: rank i listens on port_base + i.
  static std::vector<std::pair<std::string, int>> localhost_endpoints(
      int world, int port_base);

  /// Reads DELTACOL_RANK, DELTACOL_WORLD and DELTACOL_ENDPOINTS (or
  /// DELTACOL_PORT_BASE for an all-localhost cluster). Returns nullopt when
  /// the variables are absent; throws ContractViolation when they are
  /// present but inconsistent.
  static std::optional<NetConfig> from_env();

  /// Validates rank/world/endpoint consistency (throws ContractViolation).
  void validate() const;
};

/// The TCP `Transport`: see the file comment. Not thread-safe — one engine
/// drives one transport, exactly like the in-process backends.
class SocketTransport final : public Transport {
 public:
  /// Rendezvous constructor: listen + full-mesh connect per `cfg` (see file
  /// comment). Throws WireError if the mesh cannot be established within
  /// `connect_timeout_ms`.
  explicit SocketTransport(const NetConfig& cfg, int connect_timeout_ms = 20000);

  /// Pre-connected constructor (hermetic tests): `peer_fds[r]` is a
  /// connected stream-socket fd to rank r (ignored at index `rank`). Takes
  /// ownership of the fds.
  SocketTransport(int rank, int world, std::vector<int> peer_fds);

  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  int num_shards() const override { return world_; }
  int local_shard() const override { return rank_; }

  /// Runs only the local rank's body (the other ranks are other processes).
  void run_shards(const std::function<void(int)>& body) override;

  /// Point-to-point slot exchange (see the file comment and the Transport
  /// contract). `to_peers[rank()]` must be empty — the local slot never
  /// crosses the wire — and the returned slots[rank()] is empty for the
  /// same reason.
  OwnedExchange exchange_owned(std::vector<std::vector<std::uint8_t>> to_peers,
                               std::vector<std::int64_t> row_counts,
                               std::vector<std::int64_t> row_bits) override;

  /// Deterministic sum over every rank's value (exchanged all-to-all,
  /// folded in ascending rank order — identical on every rank).
  std::int64_t allreduce_sum(std::int64_t value) override;

  /// Deterministic max over every rank's value.
  std::int64_t allreduce_max(std::int64_t value) override;

  /// Gathers the owned entries of `values` from every rank (per `part`) so
  /// the whole array is globally agreed on return — the end-of-run result
  /// reassembly of a distributed run.
  void gather_colors(const VertexPartition& part,
                     std::vector<int>& values) override;

  /// Blocks until every rank reached this barrier (an allreduce_sum of 0).
  /// Used by launchers to fence phases that are replicated rather than
  /// exchanged.
  void barrier() { allreduce_sum(0); }

  int rank() const { return rank_; }
  int world() const { return world_; }

  // --- physically measured wire traffic (frame payloads + prefixes), the
  // --- denominator of the E17 framing-overhead ratio.
  std::int64_t wire_bytes_sent() const { return bytes_sent_; }
  std::int64_t wire_bytes_received() const { return bytes_received_; }
  std::int64_t frames_sent() const { return frames_sent_; }

  /// Encoded slot payload bytes framed to *other* ranks across all
  /// exchanges — the measured cross-shard payload (exchange_owned asserts
  /// per frame that frame size = header + this payload), the number
  /// bench_e18 reports as the locality win.
  std::int64_t cross_payload_bytes() const { return cross_payload_bytes_; }

 private:
  /// read_frame with this transport's timeout, rethrowing WireError with
  /// the peer rank named (the hardening contract).
  std::vector<std::uint8_t> read_frame_from(int peer);
  /// One pairwise leg of an allreduce: send our value to `peer`, return
  /// theirs (synchronous, sequence-validated).
  std::int64_t exchange_reduce_value(int peer, std::int64_t value);
  void close_all();

  int rank_ = -1;
  int world_ = 0;
  std::vector<int> fds_;  // per peer rank, -1 at rank_
  std::uint32_t seq_ = 0;
  int net_timeout_ms_ = 0;  // DELTACOL_NET_TIMEOUT_MS; 0 = wait forever
  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_received_ = 0;
  std::int64_t frames_sent_ = 0;
  std::int64_t cross_payload_bytes_ = 0;
};

}  // namespace deltacol
