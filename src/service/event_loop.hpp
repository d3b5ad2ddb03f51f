#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "service/server.hpp"
#include "service/transport.hpp"

namespace aesz::service {

/// Readiness multiplexer: a thin wrapper over epoll(7), level triggered,
/// so handlers may consume partial input and rely on the next wait()
/// re-reporting readiness.
class EventLoop {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  // EPOLLERR/EPOLLHUP — treat as fatal for the fd
  };

  /// Throws aesz::Error(kIoError) when no epoll instance can be created.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void add(int fd, bool want_read, bool want_write);
  void modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Block up to timeout_ms (-1 = forever) and append ready fds to `out`.
  /// Returns the number of events appended (0 on timeout).
  int wait(std::vector<Event>& out, int timeout_ms);

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  int epfd_ = -1;
  std::map<int, Interest> interest_;  // lets modify() skip no-op changes
};

/// Event-driven multi-client front end over one Server: a single loop
/// thread multiplexes the listening socket (if any), every accepted or
/// adopted client connection and the completion wake pipe through
/// EventLoop, while request execution stays on the Server's ThreadPool /
/// batching scheduler via Server::submit(). It is the only request front
/// end: to serve one already-connected socket until its peer closes, use
/// the listener-less constructor with `accept_limit = 1`, adopt(fd), then
/// run().
///
/// Per-connection lifecycle (docs/PROTOCOL.md "connection lifecycle"):
///
///   reading-frame -> queued/executing -> writing-response -> reading-frame
///
///  - reading-frame: nonblocking reads feed an incremental reassembly
///    buffer; the 4-byte length prefix is validated against
///    kMaxFrameBytes BEFORE any body allocation, and a hostile prefix gets
///    a typed kCorruptStream error frame before the connection closes
///    (framing cannot resynchronize after it).
///  - queued/executing: each completed frame takes a per-connection
///    sequence slot and goes to Server::submit(). Admission control:
///    past Options::max_inflight outstanding requests (across ALL
///    connections) a request is answered immediately with a typed
///    kOverloaded error frame instead of being queued.
///  - writing-response: completions arrive on worker threads, are handed
///    to the loop through a wake pipe, and flush strictly in request
///    order per connection. A peer that stops reading only backs up its
///    OWN buffers: past Options::max_conn_buffered outbound bytes the
///    loop pauses that connection's reads (resuming below half), so a
///    slow reader caps server memory instead of growing it.
///
/// Half-close is honored: EOF stops reads, but responses still in flight
/// flush before the connection closes. The loop's ev_* counters and gauges
/// live in the Server's MetricsRegistry (Server::metrics()), so one stats
/// or Prometheus metrics frame covers both layers through a single
/// snapshot; they accumulate across every front end a Server has had,
/// while accept_limit counts this instance's connections only.
class EventServer {
 public:
  struct Options {
    /// Admission cap: outstanding (submitted, unanswered) requests across
    /// all connections before new requests get kOverloaded answers.
    std::size_t max_inflight = 64;
    /// Per-connection outbound byte threshold that pauses reading from
    /// that connection (resumes below half of it).
    std::size_t max_conn_buffered = std::size_t{8} << 20;
    /// 0 = serve until stop(); N = stop accepting after N connections
    /// (accepted or adopted) and return from run() once they have all
    /// fully closed (the example's --once N mode).
    std::uint64_t accept_limit = 0;
  };

  EventServer(Server& server, TcpListener& listener, Options opt);
  /// No listener: the loop serves only connections handed to adopt().
  EventServer(Server& server, Options opt);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Serve an already-connected stream socket (e.g. one end of an
  /// AF_UNIX socketpair) exactly like an accepted connection — accepted
  /// sockets take this same path — and take ownership of `fd`. It counts
  /// toward accept_limit. Precondition: call before run(); the loop's
  /// state is not guarded against a concurrent caller.
  void adopt(int fd);

  /// Run the loop on the calling thread until stop() or accept_limit.
  void run();

  /// Thread-safe and idempotent: wake the loop, stop accepting, let every
  /// connection flush what it owes, then make run() return.
  void stop();

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    // Incremental frame reassembly: raw bytes as they arrived; a frame is
    // extracted the moment its prefix + body are complete.
    std::vector<std::uint8_t> rbuf;
    // Ordered response slots: requests take seqs in arrival order and
    // responses flush in seq order no matter which finishes first.
    std::uint64_t next_seq = 0;
    std::uint64_t next_flush = 0;
    std::map<std::uint64_t, std::vector<std::uint8_t>> ready;
    // Outbound: length-prefixed frames waiting for the socket.
    std::deque<std::vector<std::uint8_t>> wqueue;
    std::size_t woff = 0;            // bytes of wqueue.front() already sent
    std::size_t buffered = 0;        // wqueue + ready payload bytes
    std::size_t inflight = 0;        // submitted, not yet completed
    bool read_paused = false;        // backpressure: read interest dropped
    bool peer_eof = false;           // half-close: no more requests
    bool closing = false;            // close once inflight == 0 and flushed
    bool want_crc = false;           // peer checksums frames: echo trailers
    bool gauged_exec = false;        // bookkeeping for the state gauges
    bool gauged_write = false;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> response;
  };

  /// Worker→loop completion handoff that OUTLIVES the EventServer: the
  /// DoneFn lambdas handed to Server::submit() capture it by shared_ptr,
  /// so a request still executing in the Server's pool when the front end
  /// is torn down delivers into this queue (and its wake pipe) instead of
  /// a destroyed object; the last such lambda releases it. Owns both ends
  /// of the wake pipe for the same reason.
  struct CompletionQueue {
    /// Throws Error(kIoError) if the wake pipe cannot be created — without
    /// it completions could never wake the loop and the server would
    /// wedge, so construction failure is fatal.
    CompletionQueue();
    ~CompletionQueue();

    CompletionQueue(const CompletionQueue&) = delete;
    CompletionQueue& operator=(const CompletionQueue&) = delete;

    /// Enqueue one completion and wake the loop. Any-thread safe.
    void push(Completion done);
    /// Make the loop's next wait() return. Any-thread safe.
    void wake();

    std::mutex mu;
    std::deque<Completion> q;
    int wake_rd = -1;  // loop side: readable => drain completions
    int wake_wr = -1;
  };

  void accept_ready();
  void stop_accepting();
  /// Handlers that may close the connection return true when they did —
  /// the Conn reference is dead afterwards and callers must not touch it.
  /// This includes complete()/admit_frame()/parse_frames(): each ends with
  /// an opportunistic flush that closes the connection when the peer has
  /// reset, so their closed result must propagate all the way up.
  bool read_ready(Conn& c);
  bool write_ready(Conn& c);
  bool parse_frames(Conn& c);
  bool admit_frame(Conn& c, std::vector<std::uint8_t> frame);
  bool complete(Conn& c, std::uint64_t seq,
                std::vector<std::uint8_t> response);
  void drain_completions();
  void update_interest(Conn& c);
  bool maybe_close(Conn& c);
  void close_conn(Conn& c);

  Server& server_;
  TcpListener* listener_;  // null for a listener-less (adopt-only) loop
  Options opt_;
  EventLoop loop_;

  bool accepting_ = false;  // a listener is still taking connections
  // This instance's connections, for accept_limit; the shared ev_*
  // counters below also count other front ends on the same Server.
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;

  std::map<int, Conn> conns_;                // keyed by fd (loop thread only)
  std::map<std::uint64_t, int> id_to_fd_;    // loop thread only
  std::uint64_t next_conn_id_ = 1;

  std::shared_ptr<CompletionQueue> done_q_;

  // Front-end instruments, living in the Server's MetricsRegistry under
  // their historical ev_* stats names. References bound at construction;
  // the loop thread writes, stats/metrics exports read. A second front end
  // over the same Server shares (accumulates into) the same instruments.
  obs::Gauge& connections_;
  obs::Counter& connections_total_;
  obs::Counter& connections_closed_;
  obs::Gauge& inflight_;
  obs::Gauge& conns_executing_;
  obs::Gauge& conns_write_blocked_;
  obs::Gauge& conns_read_paused_;
  obs::Counter& rejected_requests_;
  obs::Counter& read_pauses_;
  obs::Gauge& buffered_high_water_;

  std::atomic<bool> stop_{false};
};

}  // namespace aesz::service
