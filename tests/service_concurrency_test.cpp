// Event-loop server under concurrency: N clients with byte-interleaved
// partial writes (frames split at every boundary), per-client
// response-to-request correspondence, admission control answering typed
// kOverloaded frames past the in-flight cap, and slow-reader backpressure
// keeping server-side buffering bounded. Runs under TSan in CI.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace aesz {
namespace {

namespace svc = ::aesz::service;

std::vector<std::uint8_t> framed(std::span<const std::uint8_t> frame) {
  const std::uint32_t len = static_cast<std::uint32_t>(frame.size());
  std::vector<std::uint8_t> out(4 + frame.size());
  std::memcpy(out.data(), &len, 4);
  std::memcpy(out.data() + 4, frame.data(), frame.size());
  return out;
}

std::vector<std::uint8_t> compress_frame(const Field& f, double abs_eb,
                                         const std::string& codec) {
  const auto floats = f.values();
  svc::CompressRequest req;
  req.codec = codec;
  req.eb = ErrorBound::Abs(abs_eb);
  req.dims = f.dims();
  req.field = {reinterpret_cast<const std::uint8_t*>(floats.data()),
               floats.size() * sizeof(float)};
  return svc::encode_compress_request(req);
}

/// Server + event loop on a background thread, stopped on destruction.
struct EventHarness {
  svc::Server server;
  std::unique_ptr<svc::TcpListener> listener;
  std::unique_ptr<svc::EventServer> events;
  std::thread loop;

  explicit EventHarness(svc::EventServer::Options ev = {},
                        svc::Server::Options so = {})
      : server(so) {
    auto bound = svc::TcpListener::bind(0);
    EXPECT_TRUE(bound.ok());
    listener = std::move(*bound);
    events = std::make_unique<svc::EventServer>(server, *listener, ev);
    loop = std::thread([this] { events->run(); });
  }
  ~EventHarness() {
    events->stop();
    loop.join();
  }
  std::unique_ptr<svc::TcpTransport> connect() {
    auto t = svc::TcpTransport::connect("127.0.0.1", listener->port());
    EXPECT_TRUE(t.ok());
    return std::move(*t);
  }
};

/// Four clients, three requests each, all requests sent ONE BYTE AT A TIME
/// round-robin across the clients — every frame boundary lands mid-read on
/// the server, exercising incremental reassembly. The resolved bound
/// echoed in each response proves response-to-request correspondence.
TEST(EventServerConcurrency, InterleavedPartialWritesReassembleCorrectly) {
  EventHarness h;

  constexpr int kClients = 4, kRequests = 3;
  const Field f = synth::cesm_freqsh(24, 36, 50);

  std::vector<std::unique_ptr<svc::TcpTransport>> clients;
  std::vector<std::vector<std::uint8_t>> wire(kClients);
  std::vector<std::size_t> sent(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(h.connect());
    for (int r = 0; r < kRequests; ++r) {
      const double abs_eb = 1e-3 * (1 + c * kRequests + r);
      const auto bytes = framed(compress_frame(f, abs_eb, "SZ2.1"));
      wire[c].insert(wire[c].end(), bytes.begin(), bytes.end());
    }
  }
  // Round-robin single-byte sends: client 0 byte 0, client 1 byte 0, ...
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (int c = 0; c < kClients; ++c) {
      if (sent[c] >= wire[c].size()) continue;
      ASSERT_TRUE(
          clients[c]->send_raw({wire[c].data() + sent[c], 1}).ok());
      ++sent[c];
      progressed = true;
    }
  }
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequests; ++r) {
      auto response = clients[c]->recv_frame();
      ASSERT_TRUE(response.ok()) << "client " << c << " response " << r;
      auto parsed = svc::parse_compress_response(*response);
      ASSERT_TRUE(parsed.ok()) << "client " << c << " response " << r;
      EXPECT_DOUBLE_EQ(parsed->abs_eb, 1e-3 * (1 + c * kRequests + r))
          << "client " << c << " got someone else's response";
    }
  }
  const auto snap = h.server.snapshot();
  EXPECT_EQ(snap.get("compress_requests"),
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(snap.get("error_responses"), 0u);
}

/// Past the admission cap the server answers immediately with a typed
/// kOverloaded error frame — in the rejected request's ordered slot — and
/// keeps serving afterwards.
TEST(EventServerConcurrency, OverloadAnswersTypedErrorAndServerSurvives) {
  svc::Server::Options so;
  so.max_batch = 8;
  so.batch_delay_us = 250000;  // hold the admitted request busy
  svc::EventServer::Options ev;
  ev.max_inflight = 1;
  EventHarness h(ev, so);

  auto conn = h.connect();
  const Field f = synth::cesm_freqsh(32, 48, 50);
  constexpr int kBurst = 8;
  // Pipeline a burst; with one in-flight slot and the first request parked
  // in the batcher's delay window, the rest must be rejected.
  for (int i = 0; i < kBurst; ++i) {
    const auto bytes = framed(compress_frame(f, 1e-3 * (i + 1), "AE-SZ"));
    ASSERT_TRUE(conn->send_raw(bytes).ok());
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto response = conn->recv_frame();
    ASSERT_TRUE(response.ok()) << i;
    const auto op = svc::peek_op(*response);
    ASSERT_TRUE(op.ok());
    if (*op == svc::Op::kErrorResponse) {
      auto err = svc::parse_error_response(*response);
      ASSERT_TRUE(err.ok());
      EXPECT_EQ(err->code, ErrCode::kOverloaded) << err->message;
      ++overloaded;
    } else {
      EXPECT_TRUE(svc::parse_compress_response(*response).ok());
      ++ok;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 1);
  EXPECT_EQ(ok + overloaded, kBurst);

  // The server is still healthy: a fresh request round-trips.
  svc::Client client(*conn);
  auto again = client.compress("SZ2.1", f, ErrorBound::Rel(1e-2));
  ASSERT_TRUE(again.ok());

  auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->get("ev_rejected_requests"),
            static_cast<std::uint64_t>(overloaded));
}

/// A client that stacks requests while refusing to read responses only
/// backs up its own connection: the loop pauses that connection's reads at
/// the buffered threshold, so the server never holds anywhere near the
/// total response volume, and every response still arrives (in order) once
/// the client starts draining.
TEST(EventServerConcurrency, SlowReaderBackpressureBoundsServerBuffering) {
  constexpr std::size_t kCap = 64 << 10;
  svc::EventServer::Options ev;
  ev.max_conn_buffered = kCap;
  EventHarness h(ev);

  // Small request, big response: decompress of a compact stream that
  // expands to a 256 KiB field.
  const Field big = synth::cesm_cldhgh(256, 256, 50);
  std::vector<std::uint8_t> stream;
  {
    auto direct = h.connect();
    svc::Client c(*direct);
    auto compressed = c.compress("SZ2.1", big, ErrorBound::Rel(1e-2));
    ASSERT_TRUE(compressed.ok());
    stream = std::move(compressed->stream);
  }
  svc::DecompressRequest req;
  req.codec = "SZ2.1";
  req.stream = stream;
  const auto wire = framed(svc::encode_decompress_request(req));
  const std::size_t kResponseBytes = big.dims().total() * sizeof(float);

  constexpr int kRequests = 24;
  auto slow = h.connect();
  std::thread sender([&] {
    for (int i = 0; i < kRequests; ++i) {
      if (!slow->send_raw(wire).ok()) return;
      // Pace the sends so responses accumulate one at a time and the
      // pause point is crossed deterministically.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  // Let responses pile up against the paused connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Observe from a second connection while the slow one is still blocked.
  {
    auto probe = h.connect();
    svc::Client c(*probe);
    auto stats = c.stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->get("ev_read_pauses"), 1u);
    EXPECT_GE(stats->get("ev_conns_read_paused"), 1u);
    // The cap held: nowhere near all kRequests responses were buffered.
    EXPECT_LT(stats->get("ev_buffered_high_water"),
              static_cast<std::uint64_t>(kRequests) * kResponseBytes / 2);
    EXPECT_GT(stats->get("ev_buffered_high_water"), kCap / 2);
  }

  // Drain: every response arrives intact and the connection recovers.
  for (int i = 0; i < kRequests; ++i) {
    auto response = slow->recv_frame();
    ASSERT_TRUE(response.ok()) << i;
    auto parsed = svc::parse_decompress_response(*response);
    ASSERT_TRUE(parsed.ok()) << i;
    EXPECT_EQ(parsed->dims.total(), big.dims().total());
  }
  sender.join();

  auto probe = h.connect();
  svc::Client c(*probe);
  auto stats = c.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->get("error_responses"), 0u);
  EXPECT_EQ(stats->get("ev_conns_read_paused"), 0u);
}

/// Raw loopback socket the harness transports can't express: closes with
/// SO_LINGER{on, 0s}, so ::close sends RST instead of FIN and the server's
/// next send/recv on the connection fails hard.
struct RawClient {
  int fd = -1;
  explicit RawClient(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      ADD_FAILURE() << "raw connect failed: " << std::strerror(errno);
      ::close(fd);
      fd = -1;
    }
  }
  void send(std::span<const std::uint8_t> bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void rst_close() {
    if (fd < 0) return;
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    ::close(fd);
    fd = -1;
  }
  ~RawClient() { rst_close(); }
};

/// Hostile peers that pipeline past the admission cap (or send a lying
/// length prefix) and then RESET the connection race the server's
/// synchronous error responses against a dying socket: send() inside the
/// completion path fails and the connection must be torn down exactly once
/// with nothing touching it afterwards (the use-after-free regression this
/// pins is only observable under ASan). The server must survive the storm
/// and keep serving.
TEST(EventServerConcurrency, ResetDuringErrorResponsesDoesNotCorrupt) {
  svc::Server::Options so;
  so.max_batch = 8;
  so.batch_delay_us = 400000;  // parks one admitted AE-SZ request
  svc::EventServer::Options ev;
  ev.max_inflight = 1;
  EventHarness h(ev, so);

  // Occupy the single in-flight slot so every stormer frame is answered
  // synchronously with kOverloaded inside the read pass.
  auto occupier = h.connect();
  const Field f = synth::cesm_freqsh(24, 36, 50);
  ASSERT_TRUE(
      occupier->send_raw(framed(compress_frame(f, 1e-3, "AE-SZ"))).ok());

  std::vector<std::uint8_t> tiny = {1, 0, 0, 0, 0xEE};  // 1-byte frame
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 16; ++i)
    burst.insert(burst.end(), tiny.begin(), tiny.end());
  const std::vector<std::uint8_t> hostile = {0xFF, 0xFF, 0xFF, 0xFF};

  for (int i = 0; i < 40; ++i) {
    RawClient raw(h.listener->port());
    if (raw.fd < 0) break;  // ASSERT in ctor already failed the test
    // Alternate abuse: overload burst vs. oversized length prefix, with
    // a sliding delay to move the reset around the server's read→send
    // window.
    raw.send(i % 2 == 0 ? burst : hostile);
    if (i % 4 != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (i % 4)));
    raw.rst_close();
  }

  // The parked request still completes for the well-behaved client...
  auto response = occupier->recv_frame();
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(svc::parse_compress_response(*response).ok());
  // A storm that outlasts the occupier's batch park can get one stormer
  // frame admitted into the single slot; the probe needs that slot back,
  // so wait (bounded) for every admitted request to be answered. An
  // ev_inflight that never drains to 0 would be a leak.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (h.server.snapshot().get("ev_inflight") != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(h.server.snapshot().get("ev_inflight"), 0u);
  // ...and a fresh connection round-trips against a healthy server.
  auto probe = h.connect();
  svc::Client client(*probe);
  auto again = client.compress("SZ2.1", f, ErrorBound::Rel(1e-2));
  ASSERT_TRUE(again.ok());
}

/// Tear the front end down while a request is still executing: the client
/// resets (so the connection is reaped) and the harness is destroyed while
/// the admitted request is still parked in the batcher. Its completion
/// then fires after the EventServer is gone and must land in the
/// shared-ownership completion queue, not the destroyed front end (the
/// destroyed-mutex/wake-pipe regression this pins shows up under ASan).
TEST(EventServerConcurrency, TeardownWithRequestStillExecuting) {
  svc::Server::Options so;
  so.max_batch = 8;
  so.batch_delay_us = 300000;  // keeps the request alive past teardown
  const Field f = synth::cesm_freqsh(24, 36, 50);
  {
    EventHarness h({}, so);
    RawClient raw(h.listener->port());
    ASSERT_GE(raw.fd, 0);
    raw.send(framed(compress_frame(f, 1e-3, "AE-SZ")));
    // Let the loop read and admit the frame before the reset discards it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    raw.rst_close();
  }  // stop() + join, then ~EventServer, then ~Server completes the job
}

/// accept_limit counts each front end's own connections: the ev_*
/// counters are shared through the Server's registry, so counting them
/// would make a second accept_limit-1 front end on the same Server never
/// accept. Each of two sequential ones serves one connection and returns.
TEST(EventServerConcurrency, SequentialFrontEndsEachHonorAcceptLimit) {
  svc::Server server;
  svc::EventServer::Options one_connection;
  one_connection.accept_limit = 1;
  const Field f = synth::cesm_freqsh(24, 36, 50);
  for (int round = 0; round < 2; ++round) {
    auto listener = svc::TcpListener::bind(0);
    ASSERT_TRUE(listener.ok());
    svc::EventServer front(server, **listener, one_connection);
    std::thread loop([&front] { front.run(); });
    auto conn = svc::TcpTransport::connect("127.0.0.1", (*listener)->port());
    ASSERT_TRUE(conn.ok());
    (*conn)->set_recv_timeout_ms(5000);  // an unserved connection fails
    svc::Client client(**conn);
    auto result = client.compress("SZ2.1", f, ErrorBound::Rel(1e-2));
    EXPECT_TRUE(result.ok()) << "round " << round << ": "
                             << result.status().str();
    (*conn)->shutdown();
    // run() returns by itself once its one connection has closed; stop()
    // only unblocks a loop that never served it, so the failure is not a
    // hang.
    if (!result.ok()) front.stop();
    loop.join();
  }
  // The shared export counters still see both connections.
  EXPECT_EQ(server.snapshot().get("ev_connections_total"), 2u);
  EXPECT_EQ(server.snapshot().get("ev_connections_closed"), 2u);
}

/// Stacked pipelined requests all get answered, in order, on one
/// connection — the ordered-slot machinery under out-of-order completion.
TEST(EventServerConcurrency, PipelinedResponsesArriveInRequestOrder) {
  EventHarness h;
  auto conn = h.connect();
  const Field f = synth::cesm_freqsh(24, 36, 50);
  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i)
    ASSERT_TRUE(
        conn->send_raw(framed(compress_frame(f, 1e-3 * (i + 1), "SZ2.1")))
            .ok());
  for (int i = 0; i < kRequests; ++i) {
    auto response = conn->recv_frame();
    ASSERT_TRUE(response.ok()) << i;
    auto parsed = svc::parse_compress_response(*response);
    ASSERT_TRUE(parsed.ok()) << i;
    EXPECT_DOUBLE_EQ(parsed->abs_eb, 1e-3 * (i + 1));
  }
}

}  // namespace
}  // namespace aesz
