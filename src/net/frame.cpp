#include "net/frame.h"

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "util/check.h"

namespace deltacol {

namespace {

using Deadline = std::chrono::steady_clock::time_point;

[[noreturn]] void io_fail(const char* what) {
  throw WireError(std::string(what) + ": " + std::strerror(errno));
}

// Writes the byte runs `iov[0, count)` whole, looping over partial writes
// and EINTR. write(2) raises SIGPIPE (fatal by default) when the peer has
// gone; sendmsg(2) with MSG_NOSIGNAL turns that into EPIPE, which we
// surface as WireError. Non-socket fds (the framing tests run over pipes
// too) fall back to writev.
void write_all(int fd, iovec* iov, int count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    std::ptrdiff_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::writev(fd, iov, count);
    if (w < 0) {
      if (errno == EINTR) continue;
      io_fail("frame write failed");
    }
    auto done = static_cast<std::size_t>(w);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
}

// Blocks until `fd` is readable or `deadline` passes; throws WireError on
// an expired deadline (the peer went silent mid-frame). A null deadline
// waits forever — the original behavior.
void wait_readable(int fd, const Deadline* deadline) {
  for (;;) {
    int wait_ms = -1;
    if (deadline != nullptr) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        throw WireError("frame read timed out: peer went silent");
      }
      wait_ms = static_cast<int>(left.count());
    }
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int rv = ::poll(&p, 1, wait_ms);
    if (rv > 0) return;  // readable (or HUP/ERR — the read will surface it)
    if (rv < 0 && errno != EINTR) io_fail("frame poll failed");
    // rv == 0 (poll timeout) loops back to re-check the deadline and throw.
  }
}

// Returns bytes read into [data, data+n); stops early only on EOF. Loops
// over short reads and EINTR — the segmentation a stream socket delivers is
// never visible above this function. A non-null `deadline` bounds every
// wait (see wait_readable).
std::size_t read_upto(int fd, std::uint8_t* data, std::size_t n,
                      const Deadline* deadline) {
  std::size_t got = 0;
  while (got < n) {
    if (deadline != nullptr) wait_readable(fd, deadline);
    const std::ptrdiff_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      io_fail("frame read failed");
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

void write_frame(int fd, const WireBuf& payload) {
  write_frame_parts(fd, {payload});
}

void write_frame_parts(
    int fd, std::initializer_list<std::span<const std::uint8_t>> parts) {
  DC_REQUIRE(parts.size() <= kMaxFrameParts,
             "write_frame_parts: more than kMaxFrameParts parts");
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  const std::uint32_t len = static_cast<std::uint32_t>(total);
  std::uint8_t prefix[4];
  prefix[0] = static_cast<std::uint8_t>(len);
  prefix[1] = static_cast<std::uint8_t>(len >> 8);
  prefix[2] = static_cast<std::uint8_t>(len >> 16);
  prefix[3] = static_cast<std::uint8_t>(len >> 24);
  std::array<iovec, kMaxFrameParts + 1> iov{};
  iov[0] = {prefix, sizeof prefix};
  int count = 1;
  for (const auto& part : parts) {
    // writev never writes through iov_base; the cast only drops const.
    iov[static_cast<std::size_t>(count++)] = {
        const_cast<std::uint8_t*>(part.data()), part.size()};
  }
  write_all(fd, iov.data(), count);
}

bool try_read_frame(int fd, WireBuf& out, int timeout_ms) {
  Deadline deadline_storage;
  const Deadline* deadline = nullptr;
  if (timeout_ms > 0) {
    deadline_storage = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
    deadline = &deadline_storage;
  }
  std::uint8_t prefix[4];
  const std::size_t got = read_upto(fd, prefix, 4, deadline);
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got < 4) throw WireError("torn frame: EOF inside the length prefix");
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len > kMaxFrameBytes) {
    throw WireError("frame length " + std::to_string(len) +
                    " exceeds kMaxFrameBytes — corrupted stream");
  }
  out.resize(len);
  if (read_upto(fd, out.data(), len, deadline) < len) {
    throw WireError("torn frame: EOF inside a " + std::to_string(len) +
                    "-byte payload");
  }
  return true;
}

WireBuf read_frame(int fd, int timeout_ms) {
  WireBuf out;
  if (!try_read_frame(fd, out, timeout_ms)) {
    throw WireError("unexpected EOF: peer closed before sending a frame");
  }
  return out;
}

}  // namespace deltacol
