/// \file
/// Length-prefixed framing over a byte-stream file descriptor — the lowest
/// layer of the net/ subsystem (ARCHITECTURE.md "The net layer").
///
/// A frame is a 4-byte little-endian payload length followed by the payload.
/// TCP (and AF_UNIX stream sockets, which the hermetic tests use) delivers a
/// byte stream with arbitrary segmentation, so every read here loops until
/// the frame is whole: short reads are re-issued, EINTR is retried, and an
/// EOF that lands *inside* a frame — a torn frame — throws `WireError`
/// rather than handing a truncated payload up the stack
/// (tests/test_socket_transport.cpp injects exactly these failures).
///
/// Frames carry serialized engine rounds and collectives (net/wire_codec.h),
/// so the length guard `kMaxFrameBytes` bounds what a confused or hostile
/// peer can make this process allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "net/wire_codec.h"

namespace deltacol {

/// Upper bound on a single frame's payload (1 GiB). A length prefix beyond
/// this is treated as stream corruption, not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// Bytes a frame adds on top of its payload (the length prefix) — part of
/// the fixed framing overhead the E17 bench accounts for.
inline constexpr std::int64_t kFramePrefixBytes = 4;

/// Writes one whole frame (length prefix + payload), looping over partial
/// writes. Throws WireError on any I/O error (including a peer that closed
/// the connection — SIGPIPE is suppressed).
void write_frame(int fd, const WireBuf& payload);

/// write_frame for a payload given as up to kMaxFrameParts byte runs, sent
/// back to back with gathered writes: a bulk run goes out behind a small
/// head without being copied next to it first.
inline constexpr std::size_t kMaxFrameParts = 3;
void write_frame_parts(int fd,
                       std::initializer_list<std::span<const std::uint8_t>> parts);

/// Reads one whole frame's payload, looping over partial reads. Throws
/// WireError on a torn frame (EOF mid-frame), an oversized length prefix, or
/// any I/O error — including EOF at a frame boundary (use try_read_frame
/// where a clean shutdown is expected).
///
/// `timeout_ms > 0` bounds the WHOLE frame read with a poll(2)-guarded
/// deadline: a peer that stops sending mid-round surfaces as a WireError
/// ("timed out") instead of hanging this rank forever — the multi-machine
/// hardening knob (DELTACOL_NET_TIMEOUT_MS on SocketTransport). `<= 0`
/// keeps the original block-forever behavior.
WireBuf read_frame(int fd, int timeout_ms = 0);

/// Like read_frame, but a clean EOF at a frame boundary returns false
/// instead of throwing. EOF inside a frame still throws (torn frame), and
/// so does an expired `timeout_ms` deadline.
bool try_read_frame(int fd, WireBuf& out, int timeout_ms = 0);

}  // namespace deltacol
