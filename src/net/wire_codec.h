/// \file
/// The wire format of the message-passing layer: what a message costs in
/// CONGEST mode (DESIGN.md §6, "CONGEST accounting") and which bytes it
/// occupies on a real link.
///
/// `WireCodec<Msg>` registers a message type once: `bits(msg)` prices it,
/// `encode` / `decode` give its bytes. Every message type that flows through
/// the `SyncEngine` (runtime/sync_engine.h) or crosses a `SocketTransport`
/// specializes it; the primary template is deliberately left undefined, so
/// an unregistered message type is a compile error, never a silent
/// under-charge or a silently wrong byte stream. The engine charges a
/// CONGEST round by the heaviest message in any slot: with one message per
/// directed edge per round, that is the heaviest edge load. The charges are
/// pinned against a hand-computed table in tests/test_message_size.cpp.
///
/// Sizing convention: payload bits only. Addressing (sender/receiver ids) is
/// carried by the edge itself in the CONGEST model — a node knows which port
/// a message arrived on — so addressing is neither charged nor encoded.
/// Fixed-width fields are charged at their declared width, a bool/flag is 1
/// bit, and variable-length payloads charge a 32-bit length prefix plus
/// their elements:
///
///   | field             | bits               | encoding                    |
///   |-------------------|--------------------|-----------------------------|
///   | bool              | 1                  | 1 byte (0/1)                |
///   | i32 / u32         | 32                 | 4 bytes, little-endian      |
///   | i64 / u64         | 64                 | 8 bytes, little-endian      |
///   | vector<T>         | 32 + the elements  | u32 prefix + elements       |
///
/// i.e. the encoded payload of any registered message is exactly the sum of
/// ceil(field_bits / 8) over its fields (sub-byte fields round up to whole
/// bytes — the only place wire bytes exceed charged bits). The fuzz suite
/// pins this equality for every registered type (tests/test_fuzz.cpp).
/// Algorithm translation units that define private message structs register
/// them in their own file (see mis/luby_sync.cpp).
///
/// Decoding is strict: a `WireReader` that runs out of bytes, a bool byte
/// outside {0, 1}, or a vector length that cannot fit the remaining bytes
/// throws `WireError` — a torn or corrupted stream never decodes to a
/// plausible-looking message.
///
/// A distributed engine round (runtime/sync_engine.h →
/// `SocketTransport::exchange_owned`) ships one edge frame per peer
/// (`encode_edge_frame` / `decode_edge_frame` below).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace deltacol {

/// A serialized payload (one edge frame, one frame body, ...).
using WireBuf = std::vector<std::uint8_t>;

/// Malformed bytes on the wire: truncated payloads, torn frames, impossible
/// lengths. Deliberately not a ContractViolation — the peer (or the network)
/// is at fault, not this process's caller.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian fields to a growing buffer.
class WireWriter {
 public:
  void put_u8(std::uint8_t x) { buf_.push_back(x); }

  void put_u32(std::uint32_t x) {
    buf_.push_back(static_cast<std::uint8_t>(x));
    buf_.push_back(static_cast<std::uint8_t>(x >> 8));
    buf_.push_back(static_cast<std::uint8_t>(x >> 16));
    buf_.push_back(static_cast<std::uint8_t>(x >> 24));
  }

  void put_u64(std::uint64_t x) {
    put_u32(static_cast<std::uint32_t>(x));
    put_u32(static_cast<std::uint32_t>(x >> 32));
  }

  std::size_t size() const { return buf_.size(); }
  WireBuf take() { return std::move(buf_); }

 private:
  WireBuf buf_;
};

/// Consumes fixed-width little-endian fields from a buffer; throws WireError
/// on underrun. Non-owning — the buffer must outlive the reader.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const WireBuf& buf) : WireReader(buf.data(), buf.size()) {}

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32() {
    need(4);
    const std::uint32_t x = static_cast<std::uint32_t>(data_[pos_]) |
                            static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                            static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                            static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return x;
  }

  std::uint64_t get_u64() {
    const std::uint64_t lo = get_u32();
    const std::uint64_t hi = get_u32();
    return lo | hi << 32;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw WireError("wire payload truncated: need " + std::to_string(n) +
                      " byte(s), have " + std::to_string(size_ - pos_));
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Primary template: intentionally undefined — specialize for every message
/// type the pipelines send (see the file comment for the convention).
template <typename Msg>
struct WireCodec;

/// Bits `msg` occupies on the wire (the quantity the CONGEST B-bit cap and
/// the per-shard bit counters are measured in).
template <typename Msg>
inline std::int64_t message_bits(const Msg& msg) {
  return WireCodec<Msg>::bits(msg);
}

// --- scalar payloads -------------------------------------------------------

template <>
struct WireCodec<bool> {
  static std::int64_t bits(const bool&) { return 1; }
  static void encode(const bool& x, WireWriter& w) { w.put_u8(x ? 1 : 0); }
  static bool decode(WireReader& r) {
    const std::uint8_t b = r.get_u8();
    if (b > 1) throw WireError("wire bool byte out of range");
    return b == 1;
  }
};

template <>
struct WireCodec<std::uint32_t> {
  static std::int64_t bits(const std::uint32_t&) { return 32; }
  static void encode(const std::uint32_t& x, WireWriter& w) { w.put_u32(x); }
  static std::uint32_t decode(WireReader& r) { return r.get_u32(); }
};

template <>
struct WireCodec<std::int32_t> {
  static std::int64_t bits(const std::int32_t&) { return 32; }
  static void encode(const std::int32_t& x, WireWriter& w) {
    w.put_u32(static_cast<std::uint32_t>(x));
  }
  static std::int32_t decode(WireReader& r) {
    return static_cast<std::int32_t>(r.get_u32());
  }
};

template <>
struct WireCodec<std::uint64_t> {
  static std::int64_t bits(const std::uint64_t&) { return 64; }
  static void encode(const std::uint64_t& x, WireWriter& w) { w.put_u64(x); }
  static std::uint64_t decode(WireReader& r) { return r.get_u64(); }
};

template <>
struct WireCodec<std::int64_t> {
  static std::int64_t bits(const std::int64_t&) { return 64; }
  static void encode(const std::int64_t& x, WireWriter& w) {
    w.put_u64(static_cast<std::uint64_t>(x));
  }
  static std::int64_t decode(WireReader& r) {
    return static_cast<std::int64_t>(r.get_u64());
  }
};

// --- composite payloads ----------------------------------------------------

/// Variable-length payload: 32-bit length prefix + the elements.
template <typename T>
struct WireCodec<std::vector<T>> {
  static std::int64_t bits(const std::vector<T>& v) {
    std::int64_t total = 32;
    for (const T& x : v) total += message_bits(x);
    return total;
  }
  static void encode(const std::vector<T>& v, WireWriter& w) {
    w.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) WireCodec<T>::encode(x, w);
  }
  static std::vector<T> decode(WireReader& r) {
    const std::uint32_t count = r.get_u32();
    // Every element costs at least one byte, so a count the remaining bytes
    // cannot cover is corruption — reject before allocating.
    if (count > r.remaining()) {
      throw WireError("wire vector length exceeds remaining payload");
    }
    std::vector<T> v;
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      v.push_back(WireCodec<T>::decode(r));
    }
    return v;
  }
};

// --- edge frames -----------------------------------------------------------
//
// One round's messages from one rank to one peer (runtime/sync_engine.h):
//
//   a ceil(k/8)-byte presence bitmap over the k cross edges to the peer
//   (edge j is bit j % 8 of byte j / 8), then the WireCodec payloads of the
//   present edges in list order.
//
// Both ranks list the k edges the same way — by ascending (receiver id,
// sender id) — from (graph, partition), so a frame carries no vertex ids:
// its only overhead over the encoded payloads is one bit per cross edge.

/// Encodes one edge frame. msg_at(j) returns a pointer to edge j's message,
/// or nullptr when edge j carries none this round.
template <typename Msg, typename MsgAt>
WireBuf encode_edge_frame(std::size_t k, const MsgAt& msg_at) {
  WireBuf frame((k + 7) / 8, 0);
  WireWriter payloads;
  for (std::size_t j = 0; j < k; ++j) {
    if (const Msg* m = msg_at(j)) {
      frame[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
      WireCodec<Msg>::encode(*m, payloads);
    }
  }
  const WireBuf body = payloads.take();
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

/// Decodes an edge frame over k edges, calling deliver(j, msg) for each
/// present edge in list order. Throws WireError on a short bitmap, a set bit
/// at index >= k, a truncated payload, or trailing bytes.
template <typename Msg, typename Deliver>
void decode_edge_frame(const WireBuf& bytes, std::size_t k,
                       const Deliver& deliver) {
  const std::size_t bitmap = (k + 7) / 8;
  if (bytes.size() < bitmap) {
    throw WireError("edge frame shorter than its presence bitmap");
  }
  if (k % 8 != 0 && (bytes[bitmap - 1] >> (k % 8)) != 0) {
    throw WireError("edge frame marks an edge past its cross-edge count");
  }
  WireReader r(bytes.data() + bitmap, bytes.size() - bitmap);
  for (std::size_t byte = 0; byte < bitmap; ++byte) {
    // Visit the set bits only, lowest first.
    for (unsigned bits = bytes[byte]; bits != 0; bits &= bits - 1) {
      deliver(byte * 8 + static_cast<std::size_t>(std::countr_zero(bits)),
              WireCodec<Msg>::decode(r));
    }
  }
  if (!r.done()) throw WireError("trailing bytes after edge frame");
}

}  // namespace deltacol
