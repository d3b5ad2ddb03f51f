#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/expected.hpp"

namespace aesz::service {

struct FrameEnvelope;

/// One sendmsg() of a frame's wire bytes from wire offset `off` on: the
/// rest of prefix | body | trailer, gathered in place from `env` and
/// `body`, so a frame needs neither a framing copy nor a write per part.
/// Returns what sendmsg() returns: the bytes written, or -1 with errno set.
/// TcpTransport and EventServer send every frame through it.
ssize_t send_frame_part(int fd, const FrameEnvelope& env,
                        std::span<const std::uint8_t> body, std::size_t off);

/// Bidirectional, frame-oriented byte transport between a client and a
/// server. On the wire every frame is a u32 little-endian byte length
/// followed by the frame body (protocol.hpp); recv_frame() validates the
/// declared length against protocol::kMaxFrameBytes BEFORE allocating, so
/// a hostile peer cannot trigger an unbounded allocation with a 4-byte
/// prefix.
///
/// Threading contract: one thread may send while another receives (the
/// underlying socket is full duplex), but concurrent sends — or concurrent
/// receives — need external serialization.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Deliver one frame. kIoError when the peer is gone.
  virtual Status send_frame(std::span<const std::uint8_t> frame) = 0;

  /// Block for the next frame. kIoError on orderly close / lost peer,
  /// kCorruptStream on an un-resynchronizable framing violation (oversized
  /// declared length, truncated length prefix mid-stream).
  virtual Expected<std::vector<std::uint8_t>> recv_frame() = 0;

  /// Unblock any pending recv_frame on both ends and refuse further
  /// traffic. Idempotent.
  virtual void shutdown() = 0;

  /// Opt into frame integrity (protocol.hpp kFrameCrcFlag): send_frame
  /// sets bit 31 of the length prefix and appends a CRC32C trailer over
  /// the body. Receivers ALWAYS accept both forms regardless of this
  /// switch, and receiving one checksummed frame turns the switch on —
  /// so a server built on raw transports echoes trailers to any peer
  /// that sends them, without per-connection bookkeeping by the caller.
  /// Default implementation is a no-op for transports (wrappers,
  /// test doubles) that do not frame bytes themselves.
  virtual void set_frame_crc(bool) {}
  virtual bool frame_crc() const { return false; }
};

/// Frame transport over a connected stream socket: TcpTransport::connect()
/// opens a TCP connection, and the fd constructor adopts any connected
/// stream socket (a TCP connection, or one end of an AF_UNIX socketpair).
/// Close/shutdown use ::shutdown so a blocked recv on another thread
/// returns instead of hanging.
class TcpTransport final : public Transport {
 public:
  /// Connect to host:port (numeric IPv4 host, e.g. "127.0.0.1").
  static Expected<std::unique_ptr<TcpTransport>> connect(
      const std::string& host, std::uint16_t port);

  /// Adopt an already-connected stream socket; the transport owns it.
  explicit TcpTransport(int fd);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status send_frame(std::span<const std::uint8_t> frame) override;
  Expected<std::vector<std::uint8_t>> recv_frame() override;
  void shutdown() override;
  void set_frame_crc(bool on) override { crc_.store(on); }
  bool frame_crc() const override { return crc_.load(); }

  /// Bound how long recv_frame() blocks waiting for bytes (a poll() ahead
  /// of every recv). A hung or wedged peer surfaces as a typed kTimeout
  /// instead of a hang; -1 (the default) blocks forever. The timeout is
  /// per read-progress, not per frame: a slow-but-moving multi-megabyte
  /// frame is fine as long as no single stall exceeds the budget.
  void set_recv_timeout_ms(int ms) { recv_timeout_ms_.store(ms); }

  /// Test hook: put raw bytes on the wire with NO length prefix, so
  /// fuzzers can present hostile/truncated prefixes and split frames at
  /// arbitrary byte boundaries.
  Status send_raw(std::span<const std::uint8_t> bytes);

 private:
  int fd_ = -1;
  std::atomic<bool> crc_{false};
  std::atomic<int> recv_timeout_ms_{-1};
};

/// Loopback (127.0.0.1) listening socket. `port == 0` binds an ephemeral
/// port; port() reports the one the kernel assigned, for clients and port
/// files.
class TcpListener {
 public:
  static Expected<std::unique_ptr<TcpListener>> bind(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Underlying listening socket, for readiness-based accept loops (the
  /// event server polls it). -1 after close(). The listener keeps
  /// ownership.
  int fd() const { return fd_; }

  /// Stop listening. Idempotent.
  void close();

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace aesz::service
