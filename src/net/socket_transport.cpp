#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "net/frame.h"
#include "net/wire_codec.h"
#include "util/check.h"

namespace deltacol {

namespace {

/// Rendezvous hello frame: tag + connecting rank.
constexpr std::uint32_t kHelloMagic = 0xDC01u;

/// Collective tags (the frame length prefix itself lives in net/frame.h).
/// Every collective consumes one tick of one sequence counter, and every
/// frame leads with its tag — so a rank that runs collectives out of step
/// decodes a wrong tag/seq and fails loudly instead of merging a stale or
/// foreign frame. The closed-form byte accounting of these frames is
/// pinned by bench_e17.
constexpr std::uint32_t kOwnedMagic = 0xDC0Eu;   // exchange_owned
constexpr std::uint32_t kReduceMagic = 0xDC0Fu;  // allreduce_{sum,max}
constexpr std::uint32_t kGatherMagic = 0xDC10u;  // gather_colors

/// DELTACOL_NET_TIMEOUT_MS (read once per transport, at construction):
/// <= 0 / unset = wait forever (the original behavior).
int net_timeout_from_env() {
  const char* s = std::getenv("DELTACOL_NET_TIMEOUT_MS");
  if (s == nullptr) return 0;
  const int ms = std::atoi(s);
  return ms > 0 ? ms : 0;
}

/// Owned-exchange frame payload: tag, u32 sender, u32 seq, u32 destination
/// rank, u32 world, world×u64 posted-envelope counts (the sender's mailbox
/// row), world×u64 posted wire bits, u32 slot length + the encoded
/// (sender, dest) slot. The tally rows ride along so every rank reassembles
/// the full S×S counters without a second collective.
constexpr std::int64_t owned_frame_header_bytes(int world) {
  return 5 * 4 + static_cast<std::int64_t>(world) * 16 + 4;
}

WireBuf encode_owned_frame(int sender, std::uint32_t seq, int dest, int world,
                           const std::vector<std::int64_t>& row_counts,
                           const std::vector<std::int64_t>& row_bits,
                           const WireBuf& slot) {
  WireWriter w;
  w.put_u32(kOwnedMagic);
  w.put_u32(static_cast<std::uint32_t>(sender));
  w.put_u32(seq);
  w.put_u32(static_cast<std::uint32_t>(dest));
  w.put_u32(static_cast<std::uint32_t>(world));
  for (std::int64_t c : row_counts) w.put_u64(static_cast<std::uint64_t>(c));
  for (std::int64_t b : row_bits) w.put_u64(static_cast<std::uint64_t>(b));
  w.put_u32(static_cast<std::uint32_t>(slot.size()));
  for (std::uint8_t b : slot) w.put_u8(b);
  return w.take();
}

struct OwnedFrame {
  std::vector<std::int64_t> row_counts;
  std::vector<std::int64_t> row_bits;
  WireBuf slot;
};

OwnedFrame decode_owned_frame(const WireBuf& payload, int expect_sender,
                              std::uint32_t expect_seq, int expect_dest,
                              int expect_world) {
  WireReader r(payload);
  const std::uint32_t magic = r.get_u32();
  if (magic != kOwnedMagic) {
    throw WireError("owner-routed frame has tag " + std::to_string(magic) +
                    " — peer rank " + std::to_string(expect_sender) +
                    " is running a different collective");
  }
  const std::uint32_t sender = r.get_u32();
  const std::uint32_t seq = r.get_u32();
  const std::uint32_t dest = r.get_u32();
  const std::uint32_t world = r.get_u32();
  if (sender != static_cast<std::uint32_t>(expect_sender)) {
    throw WireError("owner-routed frame from rank " + std::to_string(sender) +
                    " arrived on the connection to rank " +
                    std::to_string(expect_sender));
  }
  if (seq != expect_seq) {
    throw WireError("rank " + std::to_string(expect_sender) +
                    " is out of step: owner-routed frame seq " +
                    std::to_string(seq) + " != expected " +
                    std::to_string(expect_seq));
  }
  if (dest != static_cast<std::uint32_t>(expect_dest)) {
    throw WireError("owner-routed frame addressed to rank " +
                    std::to_string(dest) + " delivered to rank " +
                    std::to_string(expect_dest));
  }
  if (world != static_cast<std::uint32_t>(expect_world)) {
    throw WireError("owner-routed frame carries a row for a world of " +
                    std::to_string(world) + ", expected " +
                    std::to_string(expect_world));
  }
  OwnedFrame out;
  out.row_counts.resize(world);
  out.row_bits.resize(world);
  for (std::uint32_t d = 0; d < world; ++d) {
    out.row_counts[d] = static_cast<std::int64_t>(r.get_u64());
  }
  for (std::uint32_t d = 0; d < world; ++d) {
    out.row_bits[d] = static_cast<std::int64_t>(r.get_u64());
  }
  const std::uint32_t len = r.get_u32();
  if (len != r.remaining()) {
    throw WireError("owner-routed frame slot length disagrees with the frame");
  }
  out.slot.resize(len);
  for (std::uint32_t i = 0; i < len; ++i) out.slot[i] = r.get_u8();
  return out;
}

void set_nodelay(int fd) {
  int one = 1;
  // Best effort: socketpair(AF_UNIX) fds used by the hermetic tests reject
  // TCP options, which is fine — they have no Nagle to disable.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int connect_with_retry(const std::string& host, int port, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const std::string port_str = std::to_string(port);
  for (;;) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int gai = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
    if (gai == 0) {
      for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
          ::freeaddrinfo(res);
          set_nodelay(fd);
          return fd;
        }
        ::close(fd);
      }
      ::freeaddrinfo(res);
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw WireError("rendezvous: could not connect to " + host + ":" +
                      port_str + " within the timeout — is the peer up?");
    }
    // The peer may simply not have bound its listener yet; back off briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

int listen_on(int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw WireError("rendezvous: socket() failed");
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw WireError("rendezvous: bind to port " + std::to_string(port) +
                    " failed: " + std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    ::close(fd);
    throw WireError("rendezvous: listen failed");
  }
  return fd;
}

}  // namespace

std::vector<std::pair<std::string, int>> NetConfig::parse_endpoints(
    const std::string& spec) {
  std::vector<std::pair<std::string, int>> out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(begin, end - begin);
    const std::size_t colon = item.rfind(':');
    DC_REQUIRE(colon != std::string::npos && colon > 0 &&
                   colon + 1 < item.size(),
               "endpoint must be host:port, got '" + item + "'");
    const std::string host = item.substr(0, colon);
    int port = 0;
    try {
      port = std::stoi(item.substr(colon + 1));
    } catch (const std::exception&) {
      port = -1;
    }
    DC_REQUIRE(port > 0 && port < 65536,
               "endpoint port out of range in '" + item + "'");
    out.emplace_back(host, port);
    begin = end + 1;
  }
  return out;
}

std::vector<std::pair<std::string, int>> NetConfig::localhost_endpoints(
    int world, int port_base) {
  DC_REQUIRE(world >= 1, "world must be positive");
  DC_REQUIRE(port_base > 0 && port_base + world <= 65536,
             "port range out of bounds");
  std::vector<std::pair<std::string, int>> out;
  out.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) out.emplace_back("127.0.0.1", port_base + r);
  return out;
}

std::optional<NetConfig> NetConfig::from_env() {
  const char* rank_s = std::getenv("DELTACOL_RANK");
  const char* world_s = std::getenv("DELTACOL_WORLD");
  if (rank_s == nullptr && world_s == nullptr) return std::nullopt;
  DC_REQUIRE(rank_s != nullptr && world_s != nullptr,
             "DELTACOL_RANK and DELTACOL_WORLD must be set together");
  NetConfig cfg;
  cfg.rank = std::atoi(rank_s);
  cfg.world = std::atoi(world_s);
  if (const char* eps = std::getenv("DELTACOL_ENDPOINTS")) {
    cfg.endpoints = parse_endpoints(eps);
  } else if (const char* base = std::getenv("DELTACOL_PORT_BASE")) {
    cfg.endpoints = localhost_endpoints(cfg.world, std::atoi(base));
  } else {
    DC_REQUIRE(false,
               "set DELTACOL_ENDPOINTS (host:port,...) or DELTACOL_PORT_BASE");
  }
  cfg.validate();
  return cfg;
}

void NetConfig::validate() const {
  DC_REQUIRE(world >= 1, "world must be positive");
  DC_REQUIRE(rank >= 0 && rank < world, "rank out of range for world");
  DC_REQUIRE(static_cast<int>(endpoints.size()) == world,
             "need exactly one endpoint per rank");
}

SocketTransport::SocketTransport(const NetConfig& cfg, int connect_timeout_ms)
    : rank_(cfg.rank), world_(cfg.world), net_timeout_ms_(net_timeout_from_env()) {
  cfg.validate();
  fds_.assign(static_cast<std::size_t>(world_), -1);
  if (world_ == 1) return;  // a lonely rank needs no mesh

  // DELTACOL_NET_TIMEOUT_MS overrides the connect budget and additionally
  // bounds the accept wait — a rank whose peer never dials fails loudly
  // instead of sitting in accept(2) forever.
  const int budget =
      net_timeout_ms_ > 0 ? net_timeout_ms_ : connect_timeout_ms;
  const int listen_fd = listen_on(cfg.endpoints[static_cast<std::size_t>(rank_)].second,
                                  world_);
  try {
    // Connect to every lower rank; the hello frame tells them who we are.
    for (int r = 0; r < rank_; ++r) {
      const auto& [host, port] = cfg.endpoints[static_cast<std::size_t>(r)];
      const int fd = connect_with_retry(host, port, budget);
      WireWriter hello;
      hello.put_u32(kHelloMagic);
      hello.put_u32(static_cast<std::uint32_t>(rank_));
      write_frame(fd, hello.take());
      fds_[static_cast<std::size_t>(r)] = fd;
    }
    // Accept from every higher rank; their hello frame tells us who they are.
    for (int pending = world_ - 1 - rank_; pending > 0; --pending) {
      if (net_timeout_ms_ > 0) {
        pollfd p{};
        p.fd = listen_fd;
        p.events = POLLIN;
        int rv;
        do {
          rv = ::poll(&p, 1, net_timeout_ms_);
        } while (rv < 0 && errno == EINTR);
        if (rv == 0) {
          throw WireError(
              "rendezvous: rank " + std::to_string(rank_) + " timed out after " +
              std::to_string(net_timeout_ms_) + " ms waiting for " +
              std::to_string(pending) + " higher rank(s) to dial");
        }
        if (rv < 0) throw WireError("rendezvous: poll on listener failed");
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) throw WireError("rendezvous: accept failed");
      set_nodelay(fd);
      const WireBuf hello = read_frame(fd, net_timeout_ms_);
      WireReader r(hello);
      const std::uint32_t magic = r.get_u32();
      const std::uint32_t peer = r.get_u32();
      if (magic != kHelloMagic || !r.done() ||
          peer <= static_cast<std::uint32_t>(rank_) ||
          peer >= static_cast<std::uint32_t>(world_) ||
          fds_[peer] != -1) {
        ::close(fd);
        throw WireError("rendezvous: bad hello frame from peer");
      }
      fds_[peer] = fd;
    }
  } catch (...) {
    ::close(listen_fd);
    close_all();
    throw;
  }
  ::close(listen_fd);
}

SocketTransport::SocketTransport(int rank, int world, std::vector<int> peer_fds)
    : rank_(rank),
      world_(world),
      fds_(std::move(peer_fds)),
      net_timeout_ms_(net_timeout_from_env()) {
  DC_REQUIRE(world_ >= 1, "world must be positive");
  DC_REQUIRE(rank_ >= 0 && rank_ < world_, "rank out of range for world");
  DC_REQUIRE(static_cast<int>(fds_.size()) == world_,
             "need one fd slot per rank");
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    DC_REQUIRE(fds_[static_cast<std::size_t>(r)] >= 0,
               "missing peer fd for rank " + std::to_string(r));
  }
  fds_[static_cast<std::size_t>(rank_)] = -1;
}

SocketTransport::~SocketTransport() { close_all(); }

void SocketTransport::close_all() {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void SocketTransport::run_shards(const std::function<void(int)>& body) {
  body(rank_);
}

std::vector<std::uint8_t> SocketTransport::read_frame_from(int peer) {
  try {
    return read_frame(fds_[static_cast<std::size_t>(peer)], net_timeout_ms_);
  } catch (const WireError& e) {
    throw WireError("rank " + std::to_string(rank_) +
                    ": reading from rank " + std::to_string(peer) + ": " +
                    e.what());
  }
}

Transport::OwnedExchange SocketTransport::exchange_owned(
    std::vector<std::vector<std::uint8_t>> to_peers,
    std::vector<std::int64_t> row_counts, std::vector<std::int64_t> row_bits) {
  DC_REQUIRE(static_cast<int>(to_peers.size()) == world_,
             "owner-routed exchange needs one slot per destination rank");
  DC_REQUIRE(static_cast<int>(row_counts.size()) == world_ &&
                 static_cast<int>(row_bits.size()) == world_,
             "owner-routed exchange needs one tally per destination rank");
  DC_REQUIRE(to_peers[static_cast<std::size_t>(rank_)].empty(),
             "owner-routed exchange: the local slot never crosses the wire");

  OwnedExchange out;
  out.slots.resize(static_cast<std::size_t>(world_));
  out.slot_counts.assign(
      static_cast<std::size_t>(world_) * static_cast<std::size_t>(world_), 0);
  out.slot_bits.assign(out.slot_counts.size(), 0);
  for (int d = 0; d < world_; ++d) {
    const std::size_t idx = static_cast<std::size_t>(rank_) *
                                static_cast<std::size_t>(world_) +
                            static_cast<std::size_t>(d);
    out.slot_counts[idx] = row_counts[static_cast<std::size_t>(d)];
    out.slot_bits[idx] = row_bits[static_cast<std::size_t>(d)];
  }

  // Encode every frame up front on the calling thread (counters are not
  // thread-safe), asserting per frame that the physical slot payload is
  // exactly the bytes the cross_payload_bytes counter records.
  const std::int64_t header = owned_frame_header_bytes(world_);
  std::vector<WireBuf> frames(static_cast<std::size_t>(world_));
  for (int d = 0; d < world_; ++d) {
    if (d == rank_) continue;
    const WireBuf& slot = to_peers[static_cast<std::size_t>(d)];
    frames[static_cast<std::size_t>(d)] =
        encode_owned_frame(rank_, seq_, d, world_, row_counts, row_bits, slot);
    DC_ENSURE(static_cast<std::int64_t>(
                  frames[static_cast<std::size_t>(d)].size()) ==
                  header + static_cast<std::int64_t>(slot.size()),
              "owner-routed frame size disagrees with its slot payload");
    cross_payload_bytes_ += static_cast<std::int64_t>(slot.size());
    bytes_sent_ += static_cast<std::int64_t>(
                       frames[static_cast<std::size_t>(d)].size()) +
                   kFramePrefixBytes;
    ++frames_sent_;
  }

  // One writer thread per peer pushes that peer's frame while this thread
  // reads the peers in rank order — everyone sends and receives
  // concurrently, so no pair of ranks can deadlock on full TCP buffers, and
  // slow peers overlap instead of serializing.
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(world_ - 1));
  std::vector<std::exception_ptr> write_errors(
      static_cast<std::size_t>(world_));
  for (int d = 0; d < world_; ++d) {
    if (d == rank_) continue;
    writers.emplace_back([this, d, &frames, &write_errors] {
      try {
        write_frame(fds_[static_cast<std::size_t>(d)],
                    frames[static_cast<std::size_t>(d)]);
      } catch (...) {
        write_errors[static_cast<std::size_t>(d)] = std::current_exception();
      }
    });
  }
  std::exception_ptr read_error;
  try {
    for (int s = 0; s < world_; ++s) {
      if (s == rank_) continue;
      const WireBuf frame = read_frame_from(s);
      bytes_received_ +=
          static_cast<std::int64_t>(frame.size()) + kFramePrefixBytes;
      OwnedFrame decoded = decode_owned_frame(frame, s, seq_, rank_, world_);
      for (int d = 0; d < world_; ++d) {
        const std::size_t idx = static_cast<std::size_t>(s) *
                                    static_cast<std::size_t>(world_) +
                                static_cast<std::size_t>(d);
        out.slot_counts[idx] = decoded.row_counts[static_cast<std::size_t>(d)];
        out.slot_bits[idx] = decoded.row_bits[static_cast<std::size_t>(d)];
      }
      out.slots[static_cast<std::size_t>(s)] = std::move(decoded.slot);
    }
  } catch (...) {
    read_error = std::current_exception();
  }
  for (std::thread& w : writers) w.join();
  if (read_error) std::rethrow_exception(read_error);
  for (const std::exception_ptr& e : write_errors) {
    if (e) std::rethrow_exception(e);
  }
  ++seq_;
  return out;
}

// Small all-to-all of one u64 per rank, folded in ascending rank order
// including our own — every rank computes the identical result. Shares the
// sequence counter with the exchanges so collective drift is caught.
std::int64_t SocketTransport::allreduce_sum(std::int64_t value) {
  std::int64_t acc = 0;
  const auto fold = [&acc](std::int64_t x) { acc += x; };
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) {
      fold(value);
      continue;
    }
    fold(exchange_reduce_value(r, value));
  }
  ++seq_;
  return acc;
}

std::int64_t SocketTransport::allreduce_max(std::int64_t value) {
  std::int64_t acc = value;
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    acc = std::max(acc, exchange_reduce_value(r, value));
  }
  ++seq_;
  return acc;
}

void SocketTransport::gather_colors(const VertexPartition& part,
                                    std::vector<int>& values) {
  DC_REQUIRE(part.num_shards() == world_,
             "gather_colors: partition shard count disagrees with the world");
  DC_REQUIRE(static_cast<int>(values.size()) == part.num_vertices(),
             "gather_colors: value array does not span the partition");
  if (world_ == 1) return;

  // Frame: tag, sender, seq, u32 owned count, count×u32 values in owned
  // order (ascending original id — graph/partition.h). Identical frame to
  // every peer, so one writer thread suffices.
  WireWriter w;
  w.put_u32(kGatherMagic);
  w.put_u32(static_cast<std::uint32_t>(rank_));
  w.put_u32(seq_);
  const int owned = part.size(rank_);
  w.put_u32(static_cast<std::uint32_t>(owned));
  for (int i = 0; i < owned; ++i) {
    w.put_u32(static_cast<std::uint32_t>(
        values[static_cast<std::size_t>(part.owned_vertex(rank_, i))]));
  }
  const WireBuf frame = w.take();
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    bytes_sent_ += static_cast<std::int64_t>(frame.size()) + kFramePrefixBytes;
    ++frames_sent_;
  }
  std::exception_ptr write_error;
  std::thread writer([&] {
    try {
      for (int r = 0; r < world_; ++r) {
        if (r == rank_) continue;
        write_frame(fds_[static_cast<std::size_t>(r)], frame);
      }
    } catch (...) {
      write_error = std::current_exception();
    }
  });
  std::exception_ptr read_error;
  try {
    for (int s = 0; s < world_; ++s) {
      if (s == rank_) continue;
      const WireBuf in = read_frame_from(s);
      bytes_received_ +=
          static_cast<std::int64_t>(in.size()) + kFramePrefixBytes;
      WireReader r(in);
      const std::uint32_t magic = r.get_u32();
      const std::uint32_t sender = r.get_u32();
      const std::uint32_t seq = r.get_u32();
      const std::uint32_t count = r.get_u32();
      if (magic != kGatherMagic ||
          sender != static_cast<std::uint32_t>(s) || seq != seq_ ||
          count != static_cast<std::uint32_t>(part.size(s))) {
        throw WireError("gather_colors: malformed frame from rank " +
                        std::to_string(s));
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        values[static_cast<std::size_t>(
            part.owned_vertex(s, static_cast<int>(i)))] =
            static_cast<int>(r.get_u32());
      }
      if (!r.done()) {
        throw WireError("gather_colors: trailing bytes from rank " +
                        std::to_string(s));
      }
    }
  } catch (...) {
    read_error = std::current_exception();
  }
  writer.join();
  if (read_error) std::rethrow_exception(read_error);
  if (write_error) std::rethrow_exception(write_error);
  ++seq_;
}

// One round of the reduce all-to-all against a single peer: send our value,
// read theirs (both 24-byte frames; the deterministic folds above never
// depend on arrival order because every pairwise exchange is synchronous).
std::int64_t SocketTransport::exchange_reduce_value(int peer,
                                                    std::int64_t value) {
  WireWriter w;
  w.put_u32(kReduceMagic);
  w.put_u32(static_cast<std::uint32_t>(rank_));
  w.put_u32(seq_);
  w.put_u64(static_cast<std::uint64_t>(value));
  const WireBuf frame = w.take();
  bytes_sent_ += static_cast<std::int64_t>(frame.size()) + kFramePrefixBytes;
  ++frames_sent_;
  std::exception_ptr write_error;
  std::thread writer([&] {
    try {
      write_frame(fds_[static_cast<std::size_t>(peer)], frame);
    } catch (...) {
      write_error = std::current_exception();
    }
  });
  std::int64_t peer_value = 0;
  std::exception_ptr read_error;
  try {
    const WireBuf in = read_frame_from(peer);
    bytes_received_ += static_cast<std::int64_t>(in.size()) + kFramePrefixBytes;
    WireReader r(in);
    const std::uint32_t magic = r.get_u32();
    const std::uint32_t sender = r.get_u32();
    const std::uint32_t seq = r.get_u32();
    peer_value = static_cast<std::int64_t>(r.get_u64());
    if (magic != kReduceMagic ||
        sender != static_cast<std::uint32_t>(peer) || seq != seq_ ||
        !r.done()) {
      throw WireError("allreduce: malformed frame from rank " +
                      std::to_string(peer));
    }
  } catch (...) {
    read_error = std::current_exception();
  }
  writer.join();
  if (read_error) std::rethrow_exception(read_error);
  if (write_error) std::rethrow_exception(write_error);
  return peer_value;
}

}  // namespace deltacol
