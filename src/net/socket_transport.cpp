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
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <system_error>
#include <thread>

#include "net/frame.h"
#include "net/wire_codec.h"
#include "util/check.h"

namespace deltacol {

namespace {

/// Rendezvous hello frame: tag + connecting rank.
constexpr std::uint32_t kHelloMagic = 0xDC01u;

/// Collective tags (the frame length prefix itself lives in net/frame.h).
/// The closed-form byte accounting of these frames is pinned by bench_e17.
constexpr std::uint32_t kOwnedMagic = 0xDC0Eu;   // exchange_owned
constexpr std::uint32_t kReduceMagic = 0xDC0Fu;  // allreduce_{sum,max}
constexpr std::uint32_t kGatherMagic = 0xDC10u;  // gather_colors

/// Every collective frame leads with u32 tag, u32 sender rank, u32 seq.
constexpr std::size_t kHeaderBytes = 12;

/// The wire invariants every collective frame must hold, checked once per
/// received frame: it belongs to the collective this rank runs (tag), it
/// comes from the rank at the other end of the connection (sender), and it
/// belongs to this very step (seq — every rank ticks once per collective,
/// so a rank that drifted a step cannot slip a stale frame in).
void check_header(const WireBuf& frame, std::uint32_t tag, int peer,
                  std::uint32_t seq) {
  WireReader r(frame);
  const std::uint32_t got_tag = r.get_u32();
  const std::uint32_t sender = r.get_u32();
  const std::uint32_t got_seq = r.get_u32();
  if (got_tag != tag) {
    throw WireError("tag check failed: tag " + std::to_string(got_tag) +
                    ", expected " + std::to_string(tag) +
                    " — the ranks are running different collectives");
  }
  if (sender != static_cast<std::uint32_t>(peer)) {
    throw WireError("sender check failed: the frame names rank " +
                    std::to_string(sender));
  }
  if (got_seq != seq) {
    throw WireError("seq check failed: seq " + std::to_string(got_seq) +
                    ", expected " + std::to_string(seq) +
                    " — the ranks are out of step");
  }
}

/// A reader over a checked frame's body, past the header.
WireReader body_reader(const WireBuf& frame) {
  return WireReader(frame.data() + kHeaderBytes, frame.size() - kHeaderBytes);
}

/// `text` as a whole base-10 integer — the rule examples/flag_parse.h
/// applies to flags: "abc", "2x", "" and out-of-range values throw
/// ContractViolation naming `what` and the value, never coerce.
int parse_int(const std::string& what, const std::string& text) {
  int out = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  DC_REQUIRE(!text.empty() && ec == std::errc() && ptr == last,
             what + " must be a base-10 integer, got '" + text + "'");
  return out;
}

/// DELTACOL_NET_TIMEOUT_MS (read once per transport, at construction):
/// <= 0 / unset = wait forever (the original behavior).
int net_timeout_from_env() {
  const char* s = std::getenv("DELTACOL_NET_TIMEOUT_MS");
  if (s == nullptr) return 0;
  const int ms = parse_int("DELTACOL_NET_TIMEOUT_MS", s);
  return ms > 0 ? ms : 0;
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
    const int port = parse_int("the port in endpoint '" + item + "'",
                               item.substr(colon + 1));
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
  cfg.rank = parse_int("DELTACOL_RANK", rank_s);
  cfg.world = parse_int("DELTACOL_WORLD", world_s);
  if (const char* eps = std::getenv("DELTACOL_ENDPOINTS")) {
    cfg.endpoints = parse_endpoints(eps);
  } else if (const char* base = std::getenv("DELTACOL_PORT_BASE")) {
    cfg.endpoints =
        localhost_endpoints(cfg.world, parse_int("DELTACOL_PORT_BASE", base));
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

void SocketTransport::all_to_all(
    std::uint32_t tag, const std::vector<BodyParts>& bodies,
    const std::function<void(int, WireBuf&)>& on_frame) {
  // One header for every peer; each frame goes out as header + body parts
  // in gathered writes, so no body is copied. Count on the calling thread
  // (the counters are not thread-safe).
  WireWriter w;
  w.put_u32(tag);
  w.put_u32(static_cast<std::uint32_t>(rank_));
  w.put_u32(seq_);
  const WireBuf header = w.take();
  for (int p = 0; p < world_; ++p) {
    if (p == rank_) continue;
    const BodyParts& body = bodies[static_cast<std::size_t>(p)];
    bytes_sent_ += static_cast<std::int64_t>(header.size() + body[0].size() +
                                             body[1].size()) +
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
  for (int p = 0; p < world_; ++p) {
    if (p == rank_) continue;
    writers.emplace_back([this, p, &header, &bodies, &write_errors] {
      try {
        const BodyParts& body = bodies[static_cast<std::size_t>(p)];
        write_frame_parts(fds_[static_cast<std::size_t>(p)],
                          {header, body[0], body[1]});
      } catch (...) {
        write_errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  std::exception_ptr read_error;
  try {
    for (int p = 0; p < world_; ++p) {
      if (p == rank_) continue;
      try {
        WireBuf frame =
            read_frame(fds_[static_cast<std::size_t>(p)], net_timeout_ms_);
        bytes_received_ +=
            static_cast<std::int64_t>(frame.size()) + kFramePrefixBytes;
        check_header(frame, tag, p, seq_);
        on_frame(p, frame);
      } catch (const WireError& e) {
        throw WireError("rank " + std::to_string(rank_) +
                        ": reading from rank " + std::to_string(p) + ": " +
                        e.what());
      }
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

  // Body: u32 destination rank, u32 world, world×u64 sent-message counts
  // (this rank's tally row), world×u64 sent wire bits, u32 slot length + the
  // edge frame for the destination (net/wire_codec.h). The tally rows ride
  // along so every rank reassembles the full S×S counters without a second
  // collective.
  // The slot goes out as the body's second part, uncopied.
  std::vector<WireBuf> heads(static_cast<std::size_t>(world_));
  std::vector<BodyParts> bodies(static_cast<std::size_t>(world_));
  for (int d = 0; d < world_; ++d) {
    if (d == rank_) continue;
    const WireBuf& slot = to_peers[static_cast<std::size_t>(d)];
    WireWriter w;
    w.put_u32(static_cast<std::uint32_t>(d));
    w.put_u32(static_cast<std::uint32_t>(world_));
    for (std::int64_t c : row_counts) w.put_u64(static_cast<std::uint64_t>(c));
    for (std::int64_t b : row_bits) w.put_u64(static_cast<std::uint64_t>(b));
    w.put_u32(static_cast<std::uint32_t>(slot.size()));
    heads[static_cast<std::size_t>(d)] = w.take();
    bodies[static_cast<std::size_t>(d)] = {heads[static_cast<std::size_t>(d)],
                                           slot};
    cross_payload_bytes_ += static_cast<std::int64_t>(slot.size());
  }

  OwnedExchange out;
  out.slots.resize(static_cast<std::size_t>(world_));
  out.slot_counts.assign(
      static_cast<std::size_t>(world_) * static_cast<std::size_t>(world_), 0);
  out.slot_bits.assign(out.slot_counts.size(), 0);
  const auto row_at = [this](int s, int d) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(world_) +
           static_cast<std::size_t>(d);
  };
  for (int d = 0; d < world_; ++d) {
    out.slot_counts[row_at(rank_, d)] = row_counts[static_cast<std::size_t>(d)];
    out.slot_bits[row_at(rank_, d)] = row_bits[static_cast<std::size_t>(d)];
  }
  all_to_all(kOwnedMagic, bodies, [&](int s, WireBuf& frame) {
    WireReader r = body_reader(frame);
    const std::uint32_t dest = r.get_u32();
    const std::uint32_t world = r.get_u32();
    if (dest != static_cast<std::uint32_t>(rank_)) {
      throw WireError("destination check failed: the frame is addressed to "
                      "rank " + std::to_string(dest));
    }
    if (world != static_cast<std::uint32_t>(world_)) {
      throw WireError("world check failed: the frame carries a world of " +
                      std::to_string(world) + ", expected " +
                      std::to_string(world_));
    }
    for (int d = 0; d < world_; ++d) {
      out.slot_counts[row_at(s, d)] = static_cast<std::int64_t>(r.get_u64());
    }
    for (int d = 0; d < world_; ++d) {
      out.slot_bits[row_at(s, d)] = static_cast<std::int64_t>(r.get_u64());
    }
    const std::uint32_t len = r.get_u32();
    if (len != r.remaining()) {
      throw WireError("length check failed: slot length " +
                      std::to_string(len) + ", " +
                      std::to_string(r.remaining()) + " bytes follow");
    }
    // The slot is the frame's tail: keep the buffer, drop what precedes it.
    frame.erase(frame.begin(),
                frame.end() - static_cast<std::ptrdiff_t>(len));
    out.slots[static_cast<std::size_t>(s)] = std::move(frame);
  });
  return out;
}

std::vector<std::int64_t> SocketTransport::all_values(std::int64_t value) {
  WireWriter w;
  w.put_u64(static_cast<std::uint64_t>(value));
  const WireBuf body = w.take();
  std::vector<std::int64_t> out(static_cast<std::size_t>(world_), value);
  all_to_all(kReduceMagic,
             std::vector<BodyParts>(static_cast<std::size_t>(world_), {body}),
             [&out](int s, WireBuf& frame) {
    WireReader r = body_reader(frame);
    out[static_cast<std::size_t>(s)] = static_cast<std::int64_t>(r.get_u64());
    if (!r.done()) {
      throw WireError("length check failed: trailing bytes after the value");
    }
  });
  return out;
}

// Both folds run over every rank's value in rank order, so every rank
// computes the identical result.
std::int64_t SocketTransport::allreduce_sum(std::int64_t value) {
  const std::vector<std::int64_t> v = all_values(value);
  return std::accumulate(v.begin(), v.end(), std::int64_t{0});
}

std::int64_t SocketTransport::allreduce_max(std::int64_t value) {
  const std::vector<std::int64_t> v = all_values(value);
  return *std::max_element(v.begin(), v.end());
}

void SocketTransport::gather_colors(const VertexPartition& part,
                                    std::vector<int>& values) {
  DC_REQUIRE(part.num_shards() == world_,
             "gather_colors: partition shard count disagrees with the world");
  DC_REQUIRE(static_cast<int>(values.size()) == part.num_vertices(),
             "gather_colors: value array does not span the partition");
  if (world_ == 1) return;

  // Body: u32 owned count, count×u32 values in owned order (ascending
  // original id — graph/partition.h). The same body goes to every peer.
  WireWriter w;
  const int owned = part.size(rank_);
  w.put_u32(static_cast<std::uint32_t>(owned));
  for (int i = 0; i < owned; ++i) {
    w.put_u32(static_cast<std::uint32_t>(
        values[static_cast<std::size_t>(part.owned_vertex(rank_, i))]));
  }
  const WireBuf body = w.take();
  all_to_all(kGatherMagic,
             std::vector<BodyParts>(static_cast<std::size_t>(world_), {body}),
             [&](int s, WireBuf& frame) {
    WireReader r = body_reader(frame);
    const std::uint32_t count = r.get_u32();
    if (count != static_cast<std::uint32_t>(part.size(s))) {
      throw WireError("count check failed: " + std::to_string(count) +
                      " values, the rank owns " + std::to_string(part.size(s)));
    }
    for (int i = 0; i < part.size(s); ++i) {
      values[static_cast<std::size_t>(part.owned_vertex(s, i))] =
          static_cast<int>(r.get_u32());
    }
    if (!r.done()) {
      throw WireError("length check failed: trailing bytes after the values");
    }
  });
}

}  // namespace deltacol
