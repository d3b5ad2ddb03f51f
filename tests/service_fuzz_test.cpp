// Deterministic protocol fuzz layer: seeded-PRNG mutations of valid frames
// (bit flips, truncation, extension, splicing, hostile length prefixes)
// pushed through the frame handler and the event server, over adopted
// socketpair connections and over TCP. The contract under ASan/UBSan
// (run_sanitizers.sh): every input produces a typed error frame or a valid
// response — never a crash, hang, out-of-bounds access, or unbounded
// allocation.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/rng.hpp"

namespace aesz {
namespace {

namespace svc = ::aesz::service;

/// Corpus of well-formed request frames the mutators start from.
std::vector<std::vector<std::uint8_t>> corpus() {
  std::vector<std::vector<std::uint8_t>> out;
  const Field f = synth::cesm_freqsh(16, 24, 50);
  const auto floats = f.values();
  svc::CompressRequest creq;
  creq.codec = "SZ2.1";
  creq.eb = ErrorBound::Rel(1e-2);
  creq.dims = f.dims();
  creq.field = {reinterpret_cast<const std::uint8_t*>(floats.data()),
                floats.size() * sizeof(float)};
  out.push_back(svc::encode_compress_request(creq));
  creq.codec = "AE-SZ";
  out.push_back(svc::encode_compress_request(creq));

  static std::vector<std::uint8_t> stream;  // valid SZ2.1 stream
  if (stream.empty()) {
    svc::Server one_shot;
    auto response = one_shot.handle_frame(out.front());
    auto parsed = svc::parse_compress_response(response);
    EXPECT_TRUE(parsed.ok());
    stream.assign(parsed->stream.begin(), parsed->stream.end());
  }
  svc::DecompressRequest dreq;
  dreq.codec = "";
  dreq.stream = stream;
  out.push_back(svc::encode_decompress_request(dreq));
  out.push_back(svc::encode_list_codecs_request());
  out.push_back(svc::encode_stats_request());

  // Progressive retrieval over a valid AEPR artifact, both modes; the
  // mutators scramble the stream, the mode byte, and the budget/target.
  static std::vector<std::uint8_t> aepr;  // valid AEPR stream
  if (aepr.empty()) {
    svc::Server one_shot;
    svc::CompressRequest preq = creq;
    preq.codec = "progressive:SZ2.1";
    // Keep the response frame alive: parsed->stream is a span into it.
    auto response = one_shot.handle_frame(svc::encode_compress_request(preq));
    auto parsed = svc::parse_compress_response(response);
    EXPECT_TRUE(parsed.ok());
    aepr.assign(parsed->stream.begin(), parsed->stream.end());
  }
  svc::ReadPartialRequest rpreq;
  rpreq.stream = aepr;
  rpreq.mode = svc::PartialMode::kByteBudget;
  rpreq.budget = aepr.size() / 2;
  out.push_back(svc::encode_read_partial_request(rpreq));
  rpreq.mode = svc::PartialMode::kTargetBound;
  rpreq.bound = ErrorBound::Abs(1e-2);
  out.push_back(svc::encode_read_partial_request(rpreq));

  // Stream-session ops. The session ids here are arbitrary — against a
  // fresh server they exercise the kNoSession path, and mutation scrambles
  // them into every other value.
  svc::OpenStreamRequest oreq;
  oreq.codec = "SZ2.1";
  oreq.eb = ErrorBound::Abs(1e-2);
  oreq.dims = f.dims();
  oreq.gop = 4;
  out.push_back(svc::encode_open_stream_request(oreq));
  svc::AppendTimestepRequest areq;
  areq.session_id = 1;
  areq.field = creq.field;
  out.push_back(svc::encode_append_timestep_request(areq));
  svc::ReadTimestepRequest rreq;
  rreq.session_id = 1;
  rreq.timestep = 0;
  out.push_back(svc::encode_read_timestep_request(rreq));
  svc::CloseStreamRequest xreq;
  xreq.session_id = 1;
  out.push_back(svc::encode_close_stream_request(xreq));
  return out;
}

/// A hostile length prefix: either a small lie (peer waits for bytes that
/// never come) or a guaranteed-oversize one (> kMaxFrameBytes, must be
/// rejected before any allocation). Never an in-between value that would
/// make the transport legitimately pre-allocate hundreds of megabytes.
std::uint32_t hostile_len(Rng& rng) {
  if (rng.below(2) == 0)
    return static_cast<std::uint32_t>(rng.below(1 << 16));
  return 0xC0000000u | static_cast<std::uint32_t>(rng.next_u64());
}

/// One deterministic mutation of `base` driven by `rng`.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& base,
                                 const std::vector<std::uint8_t>& other,
                                 Rng& rng) {
  std::vector<std::uint8_t> m = base;
  switch (rng.below(6)) {
    case 0:  // flip 1-8 random bits
      for (std::uint64_t i = 0, n = 1 + rng.below(8); i < n && !m.empty();
           ++i)
        m[rng.below(m.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1:  // truncate at a random point (frame boundaries included)
      m.resize(rng.below(m.size() + 1));
      break;
    case 2:  // extend with random tail bytes
      for (std::uint64_t i = 0, n = 1 + rng.below(64); i < n; ++i)
        m.push_back(static_cast<std::uint8_t>(rng.below(256)));
      break;
    case 3: {  // splice: head of one frame, tail of another
      const std::size_t cut_a = rng.below(m.size() + 1);
      const std::size_t cut_b = other.empty() ? 0 : rng.below(other.size());
      m.resize(cut_a);
      m.insert(m.end(), other.begin() + cut_b, other.end());
      break;
    }
    case 4:  // stomp a random aligned u32 (magic/length/count fields)
      if (m.size() >= 4) {
        const std::uint32_t v = static_cast<std::uint32_t>(rng.next_u64());
        std::memcpy(m.data() + 4 * rng.below(m.size() / 4), &v, 4);
      }
      break;
    default:  // pure noise of hostile length
      m.assign(rng.below(512), 0);
      for (auto& b : m) b = static_cast<std::uint8_t>(rng.below(256));
      break;
  }
  return m;
}

bool is_valid_response_or_error(std::span<const std::uint8_t> frame) {
  const auto op = svc::peek_op(frame);
  if (!op.ok()) return false;
  switch (*op) {
    case svc::Op::kErrorResponse:
      return svc::parse_error_response(frame).ok();
    case svc::Op::kCompressResponse:
      return svc::parse_compress_response(frame).ok();
    case svc::Op::kDecompressResponse:
      return svc::parse_decompress_response(frame).ok();
    case svc::Op::kListCodecsResponse:
      return svc::parse_list_codecs_response(frame).ok();
    case svc::Op::kStatsResponse:
      return svc::parse_stats_response(frame).ok();
    case svc::Op::kOpenStreamResponse:
      return svc::parse_open_stream_response(frame).ok();
    case svc::Op::kAppendTimestepResponse:
      return svc::parse_append_timestep_response(frame).ok();
    case svc::Op::kReadTimestepResponse:
      return svc::parse_read_timestep_response(frame).ok();
    case svc::Op::kCloseStreamResponse:
      return svc::parse_close_stream_response(frame).ok();
    case svc::Op::kReadPartialResponse:
      return svc::parse_read_partial_response(frame).ok();
    default:
      return false;
  }
}

/// Frame-level: every mutated frame gets a parseable typed response.
TEST(ServiceFuzz, MutatedFramesAlwaysGetTypedResponses) {
  svc::Server server;
  const auto seeds = {0x5eedULL, 0xfeedULL, 0xc0ffeeULL};
  const auto base = corpus();
  for (const auto seed : seeds) {
    Rng rng(seed);
    for (int iter = 0; iter < 150; ++iter) {
      const auto& a = base[rng.below(base.size())];
      const auto& b = base[rng.below(base.size())];
      const auto m = mutate(a, b, rng);
      const auto response = server.handle_frame(m);
      EXPECT_TRUE(is_valid_response_or_error(response))
          << "seed " << seed << " iter " << iter;
    }
  }
  // The server survived several hundred hostile frames and still works.
  const auto ok = server.handle_frame(base.front());
  EXPECT_TRUE(svc::parse_compress_response(ok).ok());
}

/// Stateful session fuzz: a random interleaving of VALID session ops
/// (open / append / read / close, plus stats as a reap tick) against live
/// sessions, with mutated frames spliced in between. Exercises the
/// session table, ticket ordering, and reaping under hostile traffic; the
/// invariant is the same — typed responses only, and a healthy server
/// afterwards with no leaked sessions.
TEST(ServiceFuzz, SessionOpsSurviveRandomInterleaving) {
  svc::Server::Options sopt;
  sopt.max_sessions = 4;  // small cap so the fuzz hits kOverloaded too
  svc::Server server(sopt);
  const Field f = synth::cesm_freqsh(16, 24, 50);
  const auto floats = f.values();
  const std::span<const std::uint8_t> field_bytes{
      reinterpret_cast<const std::uint8_t*>(floats.data()),
      floats.size() * sizeof(float)};
  const auto base = corpus();

  for (const auto seed : {0xdeadULL, 0xbeefULL, 0x5e55ULL}) {
    Rng rng(seed);
    std::vector<std::uint64_t> live;  // ids we believe are open
    for (int iter = 0; iter < 200; ++iter) {
      // A session id to target: usually a live one, sometimes garbage.
      const std::uint64_t id =
          (!live.empty() && rng.below(4) != 0)
              ? live[rng.below(live.size())]
              : rng.next_u64() % 1000;
      std::vector<std::uint8_t> frame;
      switch (rng.below(8)) {
        case 0: {
          svc::OpenStreamRequest req;
          req.codec = rng.below(4) == 0 ? "no-such-codec" : "SZ2.1";
          req.eb = ErrorBound::Abs(1e-2);
          req.dims = f.dims();
          req.gop = rng.below(6);
          frame = svc::encode_open_stream_request(req);
          break;
        }
        case 1:
        case 2: {
          svc::AppendTimestepRequest req;
          req.session_id = id;
          // Sometimes a short/oversized field (kInvalidArgument path).
          req.field = rng.below(5) == 0
                          ? field_bytes.subspan(0, 4 * rng.below(16) + 4)
                          : field_bytes;
          frame = svc::encode_append_timestep_request(req);
          break;
        }
        case 3: {
          svc::ReadTimestepRequest req;
          req.session_id = id;
          req.timestep = rng.below(32);  // often out of range
          frame = svc::encode_read_timestep_request(req);
          break;
        }
        case 4: {
          svc::CloseStreamRequest req;
          req.session_id = id;
          frame = svc::encode_close_stream_request(req);
          break;
        }
        case 5:
          frame = svc::encode_stats_request();  // doubles as a reap tick
          break;
        default:  // splice hostile bytes between the valid session traffic
          frame = mutate(base[rng.below(base.size())],
                         base[rng.below(base.size())], rng);
          break;
      }
      const auto response = server.handle_frame(frame);
      ASSERT_TRUE(is_valid_response_or_error(response))
          << "seed " << seed << " iter " << iter;
      // Track the session table as the server reports it.
      const auto op = svc::peek_op(response);
      if (op.ok() && *op == svc::Op::kOpenStreamResponse)
        live.push_back(svc::parse_open_stream_response(response)->session_id);
      if (op.ok() && *op == svc::Op::kCloseStreamResponse)
        live.erase(std::remove(live.begin(), live.end(), id), live.end());
    }
    // Drain: close everything we still hold; each close must answer with
    // either the artifact or a typed kNoSession (never anything else).
    for (const auto sid : live) {
      svc::CloseStreamRequest req;
      req.session_id = sid;
      const auto response =
          server.handle_frame(svc::encode_close_stream_request(req));
      const auto op = svc::peek_op(response);
      ASSERT_TRUE(op.ok());
      if (*op == svc::Op::kErrorResponse) {
        EXPECT_EQ(svc::parse_error_response(response)->code,
                  ErrCode::kNoSession);
      } else {
        EXPECT_EQ(*op, svc::Op::kCloseStreamResponse);
      }
    }
    live.clear();
  }

  // No leaked sessions, and the server still does normal work.
  const auto stats_frame = server.handle_frame(svc::encode_stats_request());
  auto stats = svc::parse_stats_response(stats_frame);
  ASSERT_TRUE(stats.ok());
  for (const auto& [name, value] : stats->counters) {
    if (name == "sessions_active") {
      EXPECT_EQ(value, 0u);
    }
  }
  const auto ok = server.handle_frame(base.front());
  EXPECT_TRUE(svc::parse_compress_response(ok).ok());
}

/// Adopted-connection level: mutated bytes INCLUDING the length prefix go
/// through the event server's framing, one fresh accept_limit-1 front end
/// per connection over the same Server; every run() must return (typed
/// response, or orderly close on an un-resynchronizable prefix).
TEST(ServiceFuzz, AdoptedConnectionSurvivesHostileFraming) {
  svc::Server server;
  svc::EventServer::Options one_connection;
  one_connection.accept_limit = 1;
  const auto base = corpus();
  for (const auto seed : {0x11ULL, 0x22ULL, 0x33ULL}) {
    Rng rng(seed);
    for (int iter = 0; iter < 40; ++iter) {
      int fds[2] = {-1, -1};
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      svc::TcpTransport client_end(fds[0]);
      svc::EventServer front(server, one_connection);
      front.adopt(fds[1]);
      std::thread serving([&front] { front.run(); });
      // A valid framed request, then mutated raw bytes (frame + mangled
      // prefix), then close. Sends may fail once the server has closed
      // its end after a hostile prefix.
      const auto& a = base[rng.below(base.size())];
      const auto m = mutate(a, base[rng.below(base.size())], rng);
      if (rng.below(2) == 0)
        (void)client_end.send_frame(a);
      std::uint32_t len = static_cast<std::uint32_t>(m.size());
      if (rng.below(3) == 0) len = hostile_len(rng);
      std::uint8_t prefix[4];
      std::memcpy(prefix, &len, 4);
      (void)client_end.send_raw({prefix, 4});
      (void)client_end.send_raw(m);
      client_end.shutdown();
      serving.join();  // must not hang
    }
  }
}

/// TCP-level against the event server: byte soup, split at random points
/// across many connections; the server must survive them all and then
/// serve a normal client correctly.
TEST(ServiceFuzz, EventServerSurvivesTcpByteSoup) {
  svc::Server server;
  auto bound = svc::TcpListener::bind(0);
  ASSERT_TRUE(bound.ok());
  svc::EventServer::Options ev;
  svc::EventServer events(server, **bound, ev);
  std::thread loop([&] { events.run(); });

  const auto base = corpus();
  for (const auto seed : {0xaaULL, 0xbbULL}) {
    Rng rng(seed);
    for (int iter = 0; iter < 30; ++iter) {
      auto conn = svc::TcpTransport::connect("127.0.0.1", (*bound)->port());
      ASSERT_TRUE(conn.ok());
      const auto& a = base[rng.below(base.size())];
      auto m = mutate(a, base[rng.below(base.size())], rng);
      // Random framing: half the time a (possibly lying) prefix, half raw.
      if (rng.below(2) == 0) {
        std::uint32_t len = static_cast<std::uint32_t>(m.size());
        if (rng.below(3) == 0) len = hostile_len(rng);
        std::uint8_t prefix[4];
        std::memcpy(prefix, &len, 4);
        m.insert(m.begin(), prefix, prefix + 4);
      }
      // Split the bytes at random points so frames straddle reads.
      std::size_t off = 0;
      while (off < m.size()) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng.below(96), m.size() - off);
        if (!(*conn)->send_raw({m.data() + off, n}).ok()) break;
        off += n;
      }
      (*conn)->shutdown();  // never waits for a response: hang-proof
    }
  }

  // The loop is still healthy after the abuse.
  auto conn = svc::TcpTransport::connect("127.0.0.1", (*bound)->port());
  ASSERT_TRUE(conn.ok());
  svc::Client client(**conn);
  const Field f = synth::cesm_freqsh(16, 24, 50);
  auto result = client.compress("SZ2.1", f, ErrorBound::Rel(1e-2));
  ASSERT_TRUE(result.ok());
  auto round = client.decompress(result->stream);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->dims().total(), f.dims().total());

  events.stop();
  loop.join();
}

}  // namespace
}  // namespace aesz
