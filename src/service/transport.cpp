#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "service/protocol.hpp"
#include "util/crc32c.hpp"

namespace aesz::service {

// ----------------------------------------------------------------- tcp ----

namespace {

/// Call `send_from(off)` (one write of the bytes past `off`) until all
/// `total` bytes are out, resuming after short writes and EINTR.
template <class SendFrom>
Status send_all(std::size_t total, SendFrom send_from) {
  for (std::size_t off = 0; off < total;) {
    const ssize_t w = send_from(off);
    if (w >= 0) {
      off += static_cast<std::size_t>(w);
    } else if (errno != EINTR) {
      return Status::error(ErrCode::kIoError,
                           std::string("send: ") + std::strerror(errno));
    }
  }
  return {};
}

enum class RecvResult { kOk, kClosed, kTimeout };

/// First receive-buffer size of a frame body; it doubles from there.
constexpr std::size_t kRecvChunk = std::size_t{1} << 20;

/// Read exactly n bytes. `timeout_ms >= 0` bounds each wait for the socket
/// to become readable (poll before recv), so a wedged peer yields kTimeout
/// instead of blocking forever; kClosed covers EOF and errors.
RecvResult recv_all(int fd, std::uint8_t* data, std::size_t n,
                    int timeout_ms) {
  while (n > 0) {
    if (timeout_ms >= 0) {
      pollfd pfd{fd, POLLIN, 0};
      const int p = ::poll(&pfd, 1, timeout_ms);
      if (p < 0) {
        if (errno == EINTR) continue;
        return RecvResult::kClosed;
      }
      if (p == 0) return RecvResult::kTimeout;
    }
    const ssize_t r = ::recv(fd, data, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return RecvResult::kClosed;
    }
    if (r == 0) return RecvResult::kClosed;  // EOF
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return RecvResult::kOk;
}

}  // namespace

ssize_t send_frame_part(int fd, const FrameEnvelope& env,
                        std::span<const std::uint8_t> body, std::size_t off) {
  const std::span<const std::uint8_t> parts[3] = {
      env.prefix, body, {env.trailer, env.trailer_bytes}};
  iovec iov[3];
  std::size_t n = 0;
  for (const auto part : parts) {
    if (off >= part.size()) {
      off -= part.size();
      continue;
    }
    iov[n].iov_base = const_cast<std::uint8_t*>(part.data() + off);
    iov[n].iov_len = part.size() - off;
    off = 0;
    ++n;
  }
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = n;
  // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

TcpTransport::TcpTransport(int fd) : fd_(fd) {}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Expected<std::unique_ptr<TcpTransport>> TcpTransport::connect(
    const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::error(ErrCode::kIoError,
                         std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::error(ErrCode::kInvalidArgument,
                         "bad IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(ErrCode::kIoError,
                         std::string("connect: ") + std::strerror(err));
  }
  return std::make_unique<TcpTransport>(fd);
}

Status TcpTransport::send_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() > kMaxFrameBytes)
    return Status::error(ErrCode::kInvalidArgument, "frame exceeds limit");
  if (fd_ < 0) return Status::error(ErrCode::kIoError, "socket closed");
  // One write for the whole frame: a body sent apart from its prefix
  // would wait behind Nagle's algorithm for the peer's delayed ACK.
  const FrameEnvelope env = frame_envelope(frame, crc_.load());
  return send_all(env.wire_bytes(frame.size()), [&](std::size_t off) {
    return send_frame_part(fd_, env, frame, off);
  });
}

Status TcpTransport::send_raw(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) return Status::error(ErrCode::kIoError, "socket closed");
  return send_all(bytes.size(), [&](std::size_t off) {
    return ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
  });
}

Expected<std::vector<std::uint8_t>> TcpTransport::recv_frame() {
  if (fd_ < 0) return Status::error(ErrCode::kIoError, "socket closed");
  const int timeout_ms = recv_timeout_ms_.load();
  const auto timeout =
      Status::error(ErrCode::kTimeout, "recv timed out waiting for peer");
  std::uint8_t prefix[4];
  switch (recv_all(fd_, prefix, 4, timeout_ms)) {
    case RecvResult::kOk: break;
    case RecvResult::kTimeout: return timeout;
    case RecvResult::kClosed:
      return Status::error(ErrCode::kIoError, "connection closed");
  }
  std::uint32_t len = 0;
  std::memcpy(&len, prefix, 4);
  const bool has_crc = (len & kFrameCrcFlag) != 0;
  len &= kFrameLenMask;
  if (len > kMaxFrameBytes)
    return Status::error(ErrCode::kCorruptStream,
                         "declared frame length exceeds limit");
  // Grow the buffer geometrically as body bytes arrive, so a peer's
  // memory cost is bounded by what it actually sent, not by what its
  // 4-byte prefix declared.
  std::vector<std::uint8_t> frame;
  for (std::size_t got = 0; got < len;) {
    frame.resize(std::min<std::size_t>(len, std::max(kRecvChunk, 2 * got)));
    switch (recv_all(fd_, frame.data() + got, frame.size() - got,
                     timeout_ms)) {
      case RecvResult::kOk: break;
      case RecvResult::kTimeout: return timeout;
      case RecvResult::kClosed:
        return Status::error(ErrCode::kCorruptStream,
                             "connection closed mid-frame");
    }
    got = frame.size();
  }
  if (has_crc) {
    std::uint8_t trailer[kFrameCrcBytes];
    switch (recv_all(fd_, trailer, kFrameCrcBytes, timeout_ms)) {
      case RecvResult::kOk: break;
      case RecvResult::kTimeout: return timeout;
      case RecvResult::kClosed:
        return Status::error(ErrCode::kCorruptStream,
                             "connection closed mid-frame");
    }
    std::uint32_t want = 0;
    std::memcpy(&want, trailer, kFrameCrcBytes);
    if (util::crc32c(frame) != want)
      return Status::error(ErrCode::kChecksumMismatch,
                           "frame checksum mismatch");
    crc_.store(true);  // peer checksums: echo trailers on our sends too
  }
  return frame;
}

void TcpTransport::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// ------------------------------------------------------------- listener ----

Expected<std::unique_ptr<TcpListener>> TcpListener::bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::error(ErrCode::kIoError,
                         std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(ErrCode::kIoError,
                         std::string("bind/listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(ErrCode::kIoError,
                         std::string("getsockname: ") + std::strerror(err));
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(bound.sin_port)));
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace aesz::service
