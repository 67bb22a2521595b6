/// \file
/// Wire serialization for the message-passing layer — the byte-level twin of
/// the CONGEST sizing traits (runtime/message_size.h).
///
/// `WireCodec<Msg>` answers the question MessageSize only prices: what bytes
/// does `msg` occupy on a real link? The two families follow the same
/// convention field by field, so bytes-on-wire and bits-charged stay provably
/// proportional:
///
///   | field             | MessageSize charge | WireCodec encoding          |
///   |-------------------|--------------------|-----------------------------|
///   | bool              | 1 bit              | 1 byte (0/1)                |
///   | i32 / u32         | 32 bits            | 4 bytes, little-endian      |
///   | i64 / u64         | 64 bits            | 8 bytes, little-endian      |
///   | pair<A, B>        | concat             | concat                      |
///   | vector<T>         | 32-bit prefix + T* | u32 prefix + elements       |
///
/// i.e. the encoded payload of any registered message is exactly the sum of
/// ceil(field_bits / 8) over its fields (sub-byte fields round up to whole
/// bytes — the only place wire bytes exceed charged bits). The fuzz suite
/// pins this equality for every registered type (tests/test_fuzz.cpp).
///
/// Like MessageSize, the primary template is deliberately left undefined:
/// an unregistered message type is a compile error, never a silently wrong
/// byte stream. Algorithm translation units that define private message
/// structs specialize both traits side by side (see mis/luby_sync.cpp).
///
/// Decoding is strict: a `WireReader` that runs out of bytes, a bool byte
/// outside {0, 1}, or a vector length that cannot fit the remaining bytes
/// throws `WireError` — a torn or corrupted stream never decodes to a
/// plausible-looking message.
///
/// The distributed exchange (`Mailbox::encode_owned_row` →
/// `Transport::exchange_owned`) serializes the off-diagonal slots of a
/// shard's mailbox row with `encode_slot`/`decode_slot` below; the halo
/// exchange (net/rank_loader.h) ships its requests and replies through the
/// vector/pair combinators.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace deltacol {

/// A serialized payload (one mailbox slot, one frame body, ...).
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
/// type that crosses a distributed Transport (the mirror of MessageSize's
/// registration discipline; see the file comment for the convention).
template <typename Msg>
struct WireCodec;

// --- scalar payloads -------------------------------------------------------

template <>
struct WireCodec<bool> {
  static void encode(const bool& x, WireWriter& w) { w.put_u8(x ? 1 : 0); }
  static bool decode(WireReader& r) {
    const std::uint8_t b = r.get_u8();
    if (b > 1) throw WireError("wire bool byte out of range");
    return b == 1;
  }
};

template <>
struct WireCodec<std::uint32_t> {
  static void encode(const std::uint32_t& x, WireWriter& w) { w.put_u32(x); }
  static std::uint32_t decode(WireReader& r) { return r.get_u32(); }
};

template <>
struct WireCodec<std::int32_t> {
  static void encode(const std::int32_t& x, WireWriter& w) {
    w.put_u32(static_cast<std::uint32_t>(x));
  }
  static std::int32_t decode(WireReader& r) {
    return static_cast<std::int32_t>(r.get_u32());
  }
};

template <>
struct WireCodec<std::uint64_t> {
  static void encode(const std::uint64_t& x, WireWriter& w) { w.put_u64(x); }
  static std::uint64_t decode(WireReader& r) { return r.get_u64(); }
};

template <>
struct WireCodec<std::int64_t> {
  static void encode(const std::int64_t& x, WireWriter& w) {
    w.put_u64(static_cast<std::uint64_t>(x));
  }
  static std::int64_t decode(WireReader& r) {
    return static_cast<std::int64_t>(r.get_u64());
  }
};

// --- composite payloads ----------------------------------------------------

template <typename A, typename B>
struct WireCodec<std::pair<A, B>> {
  static void encode(const std::pair<A, B>& p, WireWriter& w) {
    WireCodec<A>::encode(p.first, w);
    WireCodec<B>::encode(p.second, w);
  }
  static std::pair<A, B> decode(WireReader& r) {
    // Sequenced explicitly: argument evaluation order is unspecified.
    A a = WireCodec<A>::decode(r);
    B b = WireCodec<B>::decode(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename T>
struct WireCodec<std::vector<T>> {
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

// --- mailbox slot encoding -------------------------------------------------
//
// One (source-shard, destination-shard) mailbox slot on the wire:
//
//   u32 envelope count, then per envelope: u32 to, u32 from, payload.
//
// The 8 addressing bytes per envelope and the 4-byte count are framing
// overhead on top of the MessageSize-priced payload (in the CONGEST model
// addressing is carried by the port a message arrives on, so it is not
// charged — see message_size.h). Envelope order is preserved exactly: the
// decoded slot replays the sender's post order, which is what makes the
// shard-major merge rule survive serialization (DESIGN.md §6).

/// Per-envelope wire overhead (to + from) in bytes, and the per-slot count
/// prefix — the constants the E17 bench checks the physical byte ratio
/// against.
inline constexpr std::int64_t kWireEnvelopeOverheadBytes = 8;
inline constexpr std::int64_t kWireSlotPrefixBytes = 4;

/// Serializes one mailbox slot. `Env` is any envelope shape with `to`,
/// `from` (vertex ids) and `msg` (a registered WireCodec type) — i.e.
/// Mailbox<Msg>::Envelope.
template <typename Msg, typename Env>
WireBuf encode_slot(const std::vector<Env>& slot) {
  WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(slot.size()));
  for (const Env& e : slot) {
    w.put_u32(static_cast<std::uint32_t>(e.to));
    w.put_u32(static_cast<std::uint32_t>(e.from));
    WireCodec<Msg>::encode(e.msg, w);
  }
  return w.take();
}

/// Decodes one mailbox slot (the exact inverse of encode_slot). Throws
/// WireError on truncation, trailing bytes, or malformed payloads.
template <typename Msg, typename Env>
std::vector<Env> decode_slot(const WireBuf& bytes) {
  WireReader r(bytes);
  const std::uint32_t count = r.get_u32();
  // Each envelope costs at least its 8 addressing bytes — reject impossible
  // counts before allocating.
  if (count > r.remaining() / kWireEnvelopeOverheadBytes) {
    throw WireError("wire slot envelope count exceeds remaining payload");
  }
  std::vector<Env> slot;
  slot.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const int to = static_cast<int>(r.get_u32());
    const int from = static_cast<int>(r.get_u32());
    slot.push_back(Env{to, from, WireCodec<Msg>::decode(r)});
  }
  if (!r.done()) throw WireError("trailing bytes after mailbox slot");
  return slot;
}

}  // namespace deltacol
