// Service-layer tests: frame protocol hostile-input discipline, the
// socket transport, server dispatch + codec/model caching, client round
// trips through the EventServer front end.
// The hostile-frame cases run under ASan/UBSan in CI (run_sanitizers.sh):
// every truncated/oversized/corrupt frame must come back as a typed error
// frame — never a crash, OOB read, or unbounded allocation.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "data/synth.hpp"
#include "metrics/metrics.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "temporal/temporal.hpp"
#include "util/bytestream.hpp"

namespace aesz {
namespace {

namespace svc = ::aesz::service;

CodecRegistry& reg() { return CodecRegistry::instance(); }

Field field_for_rank(int rank) {
  switch (rank) {
    case 1: {
      Field f{Dims(std::size_t{512})};
      for (std::size_t i = 0; i < f.size(); ++i)
        f.at(i) = std::sin(0.02f * static_cast<float>(i)) +
                  0.2f * std::sin(0.17f * static_cast<float>(i));
      return f;
    }
    case 2: return synth::cesm_freqsh(32, 48, 50);
    default: return synth::hurricane_u(16, 16, 16, 43);
  }
}

std::span<const std::uint8_t> field_bytes(const Field& f) {
  const auto v = f.values();
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(float)};
}

/// Two connected AF_UNIX stream sockets as transports.
std::pair<std::unique_ptr<svc::TcpTransport>,
          std::unique_ptr<svc::TcpTransport>>
transport_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_unique<svc::TcpTransport>(fds[0]),
          std::make_unique<svc::TcpTransport>(fds[1])};
}

/// One connection served by an EventServer on its own thread: the server
/// adopts one end of a socketpair, the test talks through `client`. The
/// destructor shuts the client end down and waits until the server has
/// closed its end.
struct Session {
  explicit Session(svc::Server& server) : front(server, one_connection()) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client = std::make_unique<svc::TcpTransport>(fds[0]);
    front.adopt(fds[1]);
    loop = std::thread([this] { front.run(); });
  }
  ~Session() {
    client->shutdown();
    loop.join();
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  static svc::EventServer::Options one_connection() {
    svc::EventServer::Options opt;
    opt.accept_limit = 1;
    return opt;
  }

  svc::EventServer front;
  std::unique_ptr<svc::TcpTransport> client;
  std::thread loop;
};

svc::CompressRequest sample_compress_request(const Field& f) {
  svc::CompressRequest req;
  req.codec = "SZ2.1";
  req.eb = ErrorBound::Rel(1e-2);
  req.dims = f.dims();
  req.field = field_bytes(f);
  return req;
}

// ---------------------------------------------------------- protocol ----

TEST(Protocol, CompressRequestRoundTrip) {
  const Field f = field_for_rank(2);
  const auto frame = svc::encode_compress_request(sample_compress_request(f));
  ASSERT_EQ(svc::peek_op(frame).value(), svc::Op::kCompressRequest);
  auto parsed = svc::parse_compress_request(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status().str();
  EXPECT_EQ(parsed->codec, "SZ2.1");
  EXPECT_EQ(parsed->eb, ErrorBound::Rel(1e-2));
  EXPECT_EQ(parsed->dims, f.dims());
  ASSERT_EQ(parsed->field.size(), f.size() * sizeof(float));
  EXPECT_EQ(0, std::memcmp(parsed->field.data(), f.data(),
                           parsed->field.size()));
}

TEST(Protocol, DecompressRequestRoundTrip) {
  const std::vector<std::uint8_t> stream{1, 2, 3, 4, 5};
  const auto frame = svc::encode_decompress_request({"ZFP", stream});
  auto parsed = svc::parse_decompress_request(frame);
  ASSERT_TRUE(parsed.ok()) << parsed.status().str();
  EXPECT_EQ(parsed->codec, "ZFP");
  EXPECT_EQ(std::vector<std::uint8_t>(parsed->stream.begin(),
                                      parsed->stream.end()),
            stream);
}

TEST(Protocol, ResponseFramesRoundTrip) {
  const std::vector<std::uint8_t> stream{9, 8, 7};
  auto cr = svc::parse_compress_response(
      svc::encode_compress_response({0.125, stream}));
  ASSERT_TRUE(cr.ok());
  EXPECT_DOUBLE_EQ(cr->abs_eb, 0.125);
  EXPECT_EQ(cr->stream.size(), 3u);

  const Field f = field_for_rank(1);
  auto dr = svc::parse_decompress_response(
      svc::encode_decompress_response({f.dims(), field_bytes(f)}));
  ASSERT_TRUE(dr.ok());
  EXPECT_EQ(dr->dims, f.dims());

  auto lr = svc::parse_list_codecs_response(svc::encode_list_codecs_response(
      {{"A", true, 0x41414141, "alpha"}, {"B", false, 0, "beta"}}));
  ASSERT_TRUE(lr.ok());
  ASSERT_EQ(lr->size(), 2u);
  EXPECT_EQ((*lr)[0].name, "A");
  EXPECT_TRUE((*lr)[0].error_bounded);
  EXPECT_EQ((*lr)[1].description, "beta");

  svc::StatsResponse stats;
  stats.counters = {{"requests", 7}, {"bytes_in", 123456}};
  auto sr = svc::parse_stats_response(svc::encode_stats_response(stats));
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(sr->get("requests"), 7u);
  EXPECT_EQ(sr->get("bytes_in"), 123456u);
  EXPECT_EQ(sr->get("unknown_counter"), 0u);

  auto er = svc::parse_error_response(svc::encode_error_response(
      {ErrCode::kUnsupported, "nope"}));
  ASSERT_TRUE(er.ok());
  EXPECT_EQ(er->code, ErrCode::kUnsupported);
  EXPECT_EQ(er->message, "nope");
}

TEST(Protocol, ZeroLengthAndSingleByteFramesAreTypedErrors) {
  for (const auto& frame :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{0x41}}) {
    EXPECT_EQ(svc::peek_op(frame).status().code, ErrCode::kTruncated);
    EXPECT_FALSE(svc::parse_compress_request(frame).ok());
    EXPECT_FALSE(svc::parse_decompress_request(frame).ok());
    EXPECT_FALSE(svc::parse_compress_response(frame).ok());
    EXPECT_FALSE(svc::parse_stats_response(frame).ok());
    EXPECT_FALSE(svc::parse_error_response(frame).ok());
  }
}

TEST(Protocol, BadMagicVersionAndOpcodeAreTypedErrors) {
  const Field f = field_for_rank(1);
  auto frame = svc::encode_compress_request(sample_compress_request(f));
  {
    auto bad = frame;
    bad[0] ^= 0xFF;
    EXPECT_EQ(svc::peek_op(bad).status().code, ErrCode::kBadMagic);
    EXPECT_EQ(svc::parse_compress_request(bad).status().code,
              ErrCode::kBadMagic);
  }
  {
    auto bad = frame;
    bad[4] = 99;  // version byte
    EXPECT_EQ(svc::peek_op(bad).status().code, ErrCode::kBadHeader);
  }
  {
    auto bad = frame;
    bad[5] = 0x7E;  // unknown opcode
    EXPECT_EQ(svc::peek_op(bad).status().code, ErrCode::kBadHeader);
  }
  {
    // A valid frame of the WRONG type is a typed mismatch, not a crash.
    EXPECT_EQ(svc::parse_decompress_request(frame).status().code,
              ErrCode::kBadHeader);
  }
  {
    auto bad = frame;
    bad.push_back(0);  // trailing byte after a complete body
    EXPECT_EQ(svc::parse_compress_request(bad).status().code,
              ErrCode::kCorruptStream);
  }
}

/// The ISSUE's core hostile-frame case: a valid frame truncated at EVERY
/// byte boundary must parse to a typed status, and the server must answer
/// each with an error frame — never crash or over-allocate.
TEST(Protocol, TruncationAtEveryByteBoundaryIsATypedError) {
  const Field f = field_for_rank(2);
  const std::vector<std::vector<std::uint8_t>> frames = {
      svc::encode_compress_request(sample_compress_request(f)),
      svc::encode_decompress_request({"ZFP", {field_bytes(f).begin(),
                                              field_bytes(f).end()}}),
      svc::encode_stats_request(),
      svc::encode_list_codecs_request(),
  };
  svc::Server server({1, "", "CESM-CLDHGH"});
  for (const auto& frame : frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::span<const std::uint8_t> prefix(frame.data(), len);
      const auto op = svc::peek_op(prefix);
      if (op.ok()) {
        // Headers survive truncation past byte 6; the body parse must not.
        if (*op == svc::Op::kCompressRequest) {
          EXPECT_FALSE(svc::parse_compress_request(prefix).ok()) << len;
        }
        if (*op == svc::Op::kDecompressRequest) {
          EXPECT_FALSE(svc::parse_decompress_request(prefix).ok()) << len;
        }
      }
      // Whatever the truncation point, the server answers with a frame —
      // either a typed error frame, or (for the empty-body requests whose
      // 6-byte prefix is already a complete frame) a real response.
      const auto response = server.handle_frame(prefix);
      ASSERT_FALSE(response.empty()) << len;
      ASSERT_TRUE(svc::peek_op(response).ok()) << len;
    }
  }
}

TEST(Protocol, OversizedDeclaredLengthsNeverOverAllocate) {
  // Hand-build a compress request whose codec-name blob declares ~2^60
  // bytes: the parser must reject against the remaining frame bytes
  // BEFORE any allocation (under ASan a giant allocation would abort).
  ByteWriter w;
  w.put(svc::kFrameMagic);
  w.put(svc::kProtocolVersion);
  w.put(static_cast<std::uint8_t>(svc::Op::kCompressRequest));
  w.put_varint(std::uint64_t{1} << 60);  // hostile blob length
  w.put_bytes(std::vector<std::uint8_t>(8, 0xAB));
  const auto r = svc::parse_compress_request(w.bytes());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code, ErrCode::kTruncated);

  // Same discipline for a hostile stats counter count.
  ByteWriter s;
  s.put(svc::kFrameMagic);
  s.put(svc::kProtocolVersion);
  s.put(static_cast<std::uint8_t>(svc::Op::kStatsResponse));
  s.put_varint(std::uint64_t{1} << 60);  // hostile counter count
  const auto sr = svc::parse_stats_response(s.bytes());
  ASSERT_FALSE(sr.ok());
  EXPECT_EQ(sr.status().code, ErrCode::kBadHeader);
}

TEST(Protocol, MismatchedFieldPayloadIsCorruptStream) {
  const Field f = field_for_rank(1);
  auto req = sample_compress_request(f);
  req.field = req.field.subspan(0, req.field.size() - 4);  // one elem short
  const auto frame = svc::encode_compress_request(req);
  EXPECT_EQ(svc::parse_compress_request(frame).status().code,
            ErrCode::kCorruptStream);
}

// --------------------------------------------------------- transports ----

TEST(TcpTransport, FrameRoundTripAndShutdown) {
  auto [client, server] = transport_pair();
  const std::vector<std::uint8_t> frame{1, 2, 3, 4, 5};
  ASSERT_TRUE(client->send_frame(frame).ok());
  auto received = server->recv_frame();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, frame);

  // Empty frames are legal on the wire.
  ASSERT_TRUE(server->send_frame({}).ok());
  auto empty = client->recv_frame();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  client->shutdown();
  EXPECT_EQ(server->recv_frame().status().code, ErrCode::kIoError);
  EXPECT_EQ(client->recv_frame().status().code, ErrCode::kIoError);
}

TEST(Client, WrongOpReplyIsCorruptStreamForSoloAndPipelinedCompress) {
  // A peer that answers every compress with a decompress-response frame.
  auto [client_end, peer] = transport_pair();
  const Field f = field_for_rank(2);
  std::thread fake([&, &peer = peer] {
    const auto reply = svc::encode_decompress_response(
        {f.dims(), field_bytes(f)});
    for (int i = 0; i < 2; ++i) {
      if (!peer->recv_frame().ok()) return;
      (void)peer->send_frame(reply);
    }
  });
  svc::Client client(*client_end);
  auto solo = client.compress("SZ2.1", f, ErrorBound::Abs(1e-2));
  auto many = client.compress_many("SZ2.1", {&f}, ErrorBound::Abs(1e-2));
  fake.join();
  ASSERT_FALSE(solo.ok());
  EXPECT_EQ(solo.status().code, ErrCode::kCorruptStream) << solo.status().str();
  ASSERT_EQ(many.size(), 1u);
  ASSERT_FALSE(many[0].ok());
  EXPECT_EQ(many[0].status().code, ErrCode::kCorruptStream)
      << many[0].status().str();
}

TEST(TcpTransport, HostileLengthPrefixIsRejectedBeforeAllocation) {
  auto [client, server] = transport_pair();
  // Declared frame length 0xFFFFFFFF (4 GiB) > kMaxFrameBytes: recv must
  // reject on the prefix alone, without allocating the declared size.
  const std::uint8_t hostile[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(client->send_raw({hostile, 4}).ok());
  const auto r = server->recv_frame();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code, ErrCode::kCorruptStream);
}

/// A length prefix within kMaxFrameBytes is no licence to allocate it:
/// the receive buffer grows with the bytes that actually arrive. The
/// receive runs in a forked child so its peak RSS is measurable alone
/// (wait4's rusage); a peer that declares 512 MiB and hangs up must cost
/// the receiver a few KiB, not the declared size.
TEST(TcpTransport, DeclaredLengthIsNotAllocatedBeforeTheBytesArrive) {
  auto [client, server] = transport_pair();
  rusage self{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &self), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const auto r = server->recv_frame();
    ::_exit(r.ok() ? 0 : static_cast<int>(r.status().code));
  }
  const std::uint32_t declared = 512u << 20;  // 512 MiB, under the cap
  std::uint8_t prefix[4];
  std::memcpy(prefix, &declared, 4);
  ASSERT_TRUE(client->send_raw({prefix, 4}).ok());
  client->shutdown();
  int status = 0;
  rusage child{};
  ASSERT_EQ(::wait4(pid, &status, 0, &child), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), static_cast<int>(ErrCode::kCorruptStream));
  // ru_maxrss is in KiB. The child starts with at most the parent's
  // resident pages, so its growth is measured above the parent's peak.
  const long growth_kib = child.ru_maxrss - self.ru_maxrss;
  EXPECT_LT(growth_kib, 64L << 10)
      << "peak RSS " << child.ru_maxrss << " KiB, parent " << self.ru_maxrss
      << " KiB";
}

TEST(TcpTransport, TruncatedLengthPrefixSurfacesOnClose) {
  auto [client, server] = transport_pair();
  const std::uint8_t partial[2] = {5, 0};  // half a length prefix
  ASSERT_TRUE(client->send_raw({partial, 2}).ok());
  client->shutdown();
  EXPECT_FALSE(server->recv_frame().ok());
}

TEST(TcpTransport, ConnectToClosedPortIsTypedError) {
  // Bind-then-close yields a port with (almost certainly) no listener.
  auto listener = svc::TcpListener::bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  (*listener)->close();
  const auto t = svc::TcpTransport::connect("127.0.0.1", port);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code, ErrCode::kIoError);
}

// ------------------------------------------------------------- server ----

/// The decompress op builds its cached codec at the rank the stream's
/// own header declares — a 3-D AE-SZ stream needs the 3-D model. The
/// rank sits after the v3 header's checksum field, not at byte 5.
TEST(Server, DecompressBuildsTheCodecAtTheStreamsRank) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  auto codec = CodecRegistry::instance().create("AE-SZ", 3).value();
  const Field f = field_for_rank(3);
  const auto stream = codec->compress(f, ErrorBound::Rel(1e-2));
  for (const char* name : {"", "AE-SZ"}) {
    const auto resp =
        server.handle_frame(svc::encode_decompress_request({name, stream}));
    const auto out = svc::parse_decompress_response(resp);
    ASSERT_TRUE(out.ok()) << "codec '" << name << "': "
                          << svc::parse_error_response(resp)->message;
    EXPECT_EQ(out->dims, f.dims());
  }
}

TEST(Server, UnknownCodecAndNonRequestOpcodesAreErrorFrames) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(1);
  auto req = sample_compress_request(f);
  req.codec = "no-such-codec";
  auto resp = server.handle_frame(svc::encode_compress_request(req));
  auto err = svc::parse_error_response(resp);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, ErrCode::kUnsupported);

  // A response opcode sent TO the server is refused, not dispatched.
  resp = server.handle_frame(svc::encode_error_response(
      {ErrCode::kInternal, "confused client"}));
  err = svc::parse_error_response(resp);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, ErrCode::kUnsupported);
}

TEST(Server, UnusableBoundIsTypedErrorFrame) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(1);
  auto req = sample_compress_request(f);
  req.eb = ErrorBound::Abs(0.0);  // unusable: not positive
  const auto resp = server.handle_frame(svc::encode_compress_request(req));
  auto err = svc::parse_error_response(resp);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, ErrCode::kInvalidArgument);
}

TEST(Server, NonFiniteZfpCompressIsInvalidArgument) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  Field f = field_for_rank(2);
  f.at(3) = std::numeric_limits<float>::quiet_NaN();
  auto req = sample_compress_request(f);
  req.codec = "ZFP";
  req.eb = ErrorBound::Abs(1e-3);
  const auto resp = server.handle_frame(svc::encode_compress_request(req));
  auto err = svc::parse_error_response(resp);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, ErrCode::kInvalidArgument) << err->message;
}

TEST(Server, CorruptStreamDecompressIsTypedErrorFrame) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  std::vector<std::uint8_t> junk{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3};
  const auto resp = server.handle_frame(
      svc::encode_decompress_request({"", junk}));  // auto-identify fails
  auto err = svc::parse_error_response(resp);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, ErrCode::kBadMagic);
}

/// An AETC artifact (what close-stream returns) holds timesteps, not one
/// field: the decompress op refuses it with a message naming the stream
/// reader, and looks up no codec on the way.
TEST(Server, DecompressRefusesTemporalArtifactsTowardTheStreamReader) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(2);
  temporal::TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  temporal::TemporalWriter w(f.dims(), ErrorBound::Rel(1e-2), opt);
  w.append(f);
  const auto artifact = w.bytes();
  for (const char* name : {"", "SZ2.1"}) {
    const auto resp =
        server.handle_frame(svc::encode_decompress_request({name, artifact}));
    auto err = svc::parse_error_response(resp);
    ASSERT_TRUE(err.ok()) << "codec '" << name << "'";
    EXPECT_EQ(err->code, ErrCode::kUnsupported);
    EXPECT_NE(err->message.find("TemporalReader"), std::string::npos)
        << err->message;
    EXPECT_NE(err->message.find("read-timestep"), std::string::npos)
        << err->message;
  }
  const auto snap = server.snapshot();
  EXPECT_EQ(snap.get("codec_cache_misses"), 0u);
  EXPECT_EQ(snap.get("codec_cache_hits"), 0u);
  EXPECT_EQ(snap.get("error_responses"), 2u);
}

/// Acceptance criterion: every registered codec round-trips through the
/// event server with the error bound verified client-side against the
/// server-reported resolved bound.
TEST(Server, EveryRegisteredCodecRoundTripsThroughEventServer) {
  svc::Server server({2, "", "CESM-CLDHGH"});
  Session session(server);
  svc::Client client(*session.client);

  for (const auto& name : reg().names()) {
    // AE-B's convolutional stack is fixed to 3-D fields.
    const int rank = name.find("AE-B") != std::string::npos ? 3 : 2;
    const Field f = field_for_rank(rank);
    auto compressed = client.compress(name, f, ErrorBound::Rel(1e-2));
    ASSERT_TRUE(compressed.ok()) << name << ": "
                                 << compressed.status().str();
    EXPECT_GT(compressed->stream.size(), 0u) << name;
    EXPECT_GT(compressed->abs_eb, 0.0) << name;

    // Identified decompress (empty codec name) must recover the field.
    auto recon = client.decompress(compressed->stream);
    ASSERT_TRUE(recon.ok()) << name << ": " << recon.status().str();
    ASSERT_EQ(recon->dims(), f.dims()) << name;
    const CodecInfo* info = reg().find(name);
    ASSERT_NE(info, nullptr) << name;
    if (info->error_bounded) {
      EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
                compressed->abs_eb * (1 + 1e-9))
          << name << " violated its bound through the service";
    }
  }
}

/// Acceptance criterion: the warm model cache — repeated AE-SZ requests
/// construct/load the model exactly once, observable via `stats`.
TEST(Server, AeModelCacheServesRepeatedRequestsWithoutReloading) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  Session session(server);
  svc::Client client(*session.client);

  const Field f = field_for_rank(2);
  // Mixed spellings on purpose: every alias/case must canonicalize onto
  // the SAME cache slot, or the model would silently load again.
  for (const char* spelling : {"AE-SZ", "AESZ", "ae-sz"}) {
    auto compressed = client.compress(spelling, f, ErrorBound::Rel(1e-2));
    ASSERT_TRUE(compressed.ok()) << spelling << ": "
                                 << compressed.status().str();
  }
  auto stats = client.stats();
  ASSERT_TRUE(stats.ok()) << stats.status().str();
  EXPECT_EQ(stats->get("compress_requests"), 3u);
  EXPECT_EQ(stats->get("ae_model_loads"), 1u)
      << "AE-SZ model must load once and stay warm";
  EXPECT_EQ(stats->get("codec_cache_misses"), 1u);
  EXPECT_EQ(stats->get("codec_cache_hits"), 2u);
  EXPECT_EQ(stats->get("error_responses"), 0u);
}

TEST(Server, StatsCountersTrackTrafficAndErrors) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(1);
  const auto ok_frame =
      svc::encode_compress_request(sample_compress_request(f));
  (void)server.handle_frame(ok_frame);
  (void)server.handle_frame(std::vector<std::uint8_t>{1, 2});  // hostile
  const auto resp = server.handle_frame(svc::encode_stats_request());
  auto stats = svc::parse_stats_response(resp);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->get("requests"), 3u);
  EXPECT_EQ(stats->get("compress_requests"), 1u);
  EXPECT_EQ(stats->get("stats_requests"), 1u);
  EXPECT_EQ(stats->get("error_responses"), 1u);
  EXPECT_GE(stats->get("bytes_in"), ok_frame.size());
  EXPECT_GT(stats->get("bytes_out"), 0u);
}

/// Pipelined scheduling: a client may stack requests on one connection;
/// responses come back in request order.
TEST(Server, PipelinedRequestsGetOrderedResponses) {
  svc::Server server({2, "", "CESM-CLDHGH"});
  Session session(server);
  svc::TcpTransport& client_end = *session.client;

  const Field f = field_for_rank(1);
  ASSERT_TRUE(client_end.send_frame(svc::encode_stats_request()).ok());
  ASSERT_TRUE(client_end
                  .send_frame(svc::encode_compress_request(
                      sample_compress_request(f)))
                  .ok());
  ASSERT_TRUE(client_end.send_frame(svc::encode_list_codecs_request()).ok());

  const svc::Op expected[] = {svc::Op::kStatsResponse,
                              svc::Op::kCompressResponse,
                              svc::Op::kListCodecsResponse};
  for (const svc::Op want : expected) {
    auto frame = client_end.recv_frame();
    ASSERT_TRUE(frame.ok()) << frame.status().str();
    const auto op = svc::peek_op(*frame);
    ASSERT_TRUE(op.ok());
    EXPECT_EQ(*op, want);
  }
}

TEST(Server, ListCodecsMatchesRegistry) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  auto parsed = svc::parse_list_codecs_response(
      server.handle_frame(svc::encode_list_codecs_request()));
  ASSERT_TRUE(parsed.ok());
  const auto names = reg().names();
  ASSERT_EQ(parsed->size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ((*parsed)[i].name, names[i]);
    EXPECT_EQ((*parsed)[i].error_bounded, reg().find(names[i])->error_bounded);
  }
}

// ------------------------------------------------------------ metrics ----

TEST(Server, MetricsOpReturnsPrometheusExposition) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(1);
  (void)server.handle_frame(
      svc::encode_compress_request(sample_compress_request(f)));
  const auto resp = server.handle_frame(svc::encode_metrics_request());
  const auto op = svc::peek_op(resp);
  ASSERT_TRUE(op.ok()) << op.status().str();
  ASSERT_EQ(*op, svc::Op::kMetricsResponse);
  const auto parsed = svc::parse_metrics_response(resp);
  ASSERT_TRUE(parsed.ok()) << parsed.status().str();
  const std::string text = parsed->text_str();
  EXPECT_NE(text.find("# TYPE aesz_requests counter\n"), std::string::npos);
  EXPECT_NE(text.find("aesz_compress_requests 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aesz_pool_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aesz_request_ns_compress histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("aesz_request_ns_compress_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("aesz_request_ns_compress_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST(Server, MetricsRequestHostileFramesAreTypedErrorFrames) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const auto frame = svc::encode_metrics_request();
  ASSERT_EQ(frame.size(), 6u);  // magic + version + opcode, empty body
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const auto resp = server.handle_frame({frame.data(), len});
    const auto op = svc::peek_op(resp);
    ASSERT_TRUE(op.ok()) << len;
    EXPECT_EQ(*op, svc::Op::kErrorResponse) << len;
  }
  {
    auto bad = frame;
    bad[4] = 99;  // version byte
    const auto err = svc::parse_error_response(server.handle_frame(bad));
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, ErrCode::kBadHeader);
  }
}

TEST(Protocol, MetricsResponseParserRejectsHostileFrames) {
  const std::string text = "# HELP aesz_requests frames handled\n";
  const auto frame = svc::encode_metrics_response(
      {{reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}});
  const auto ok = svc::parse_metrics_response(frame);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->text_str(), text);

  // Truncation at every byte boundary is a typed error, never a crash.
  for (std::size_t len = 0; len < frame.size(); ++len)
    EXPECT_FALSE(
        svc::parse_metrics_response({frame.data(), len}).ok())
        << len;
  {
    auto bad = frame;
    bad.push_back(0);  // trailing byte after a complete body
    EXPECT_EQ(svc::parse_metrics_response(bad).status().code,
              ErrCode::kCorruptStream);
  }
  {
    // A hostile declared text length must not over-allocate.
    ByteWriter w;
    w.put(svc::kFrameMagic);
    w.put(svc::kProtocolVersion);
    w.put(static_cast<std::uint8_t>(svc::Op::kMetricsResponse));
    w.put_varint(std::uint64_t{1} << 60);
    const auto r = svc::parse_metrics_response(w.bytes());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code, ErrCode::kTruncated);
  }
  // A valid frame of the wrong type is a typed mismatch.
  EXPECT_EQ(svc::parse_metrics_response(svc::encode_stats_request())
                .status()
                .code,
            ErrCode::kBadHeader);
}

TEST(Server, ClientMetricsFetchesPrometheusText) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  Session session(server);
  svc::Client client(*session.client);
  const Field f = field_for_rank(2);
  ASSERT_TRUE(client.compress("ZFP", f, ErrorBound::Rel(1e-2)).ok());
  const auto text = client.metrics();
  ASSERT_TRUE(text.ok()) << text.status().str();
  EXPECT_NE(text->find("aesz_compress_requests 1\n"), std::string::npos);
  EXPECT_NE(text->find("# TYPE aesz_request_ns_compress histogram\n"),
            std::string::npos);
}

TEST(Server, StatsFrameCarriesHistogramSummaryRows) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(1);
  (void)server.handle_frame(
      svc::encode_compress_request(sample_compress_request(f)));
  // The extended frame still parses with the v1 stats parser — histogram
  // summaries are just more named rows of the same wire shape.
  const auto stats = svc::parse_stats_response(
      server.handle_frame(svc::encode_stats_request()));
  ASSERT_TRUE(stats.ok()) << stats.status().str();
  EXPECT_EQ(stats->get("requests"), 2u);
  EXPECT_EQ(stats->get("request_ns_compress_count"), 1u);
  EXPECT_GT(stats->get("request_ns_compress_sum"), 0u);
  EXPECT_GT(stats->get("request_ns_compress_p50"), 0u);
  EXPECT_GE(stats->get("request_ns_compress_p99"),
            stats->get("request_ns_compress_p50"));
  EXPECT_EQ(stats->get("request_bytes_in_count"), 1u);
  EXPECT_EQ(stats->get("response_bytes_out_count"), 1u);
}

// ------------------------------------------------------- read-partial ----

TEST(Server, ReadPartialServesBudgetedAndBoundTargetedPrefixes) {
  svc::Server server({2, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(2);

  // Build the AEPR artifact through the server itself.
  svc::CompressRequest creq;
  creq.codec = "progressive:SZ2.1";
  creq.eb = ErrorBound::Rel(1e-2);
  creq.dims = f.dims();
  creq.field = field_bytes(f);
  const auto cframe = server.handle_frame(svc::encode_compress_request(creq));
  auto compressed = svc::parse_compress_response(cframe);
  ASSERT_TRUE(compressed.ok()) << compressed.status().str();
  const std::vector<std::uint8_t> stream(compressed->stream.begin(),
                                         compressed->stream.end());

  // A whole-stream budget answers every layer at the full-fidelity bound.
  svc::ReadPartialRequest req;
  req.stream = stream;
  req.mode = svc::PartialMode::kByteBudget;
  req.budget = stream.size();
  const auto full_frame =
      server.handle_frame(svc::encode_read_partial_request(req));
  auto full = svc::parse_read_partial_response(full_frame);
  ASSERT_TRUE(full.ok()) << full.status().str();
  EXPECT_EQ(full->layers, full->total_layers);
  EXPECT_EQ(full->stream.size(), stream.size());
  EXPECT_DOUBLE_EQ(full->abs_eb, compressed->abs_eb);

  // A one-byte budget still answers the coarsest layer — never an error —
  // and the shipped prefix actually decodes within the promised bound.
  req.budget = 1;
  const auto coarse_frame =
      server.handle_frame(svc::encode_read_partial_request(req));
  auto coarse = svc::parse_read_partial_response(coarse_frame);
  ASSERT_TRUE(coarse.ok()) << coarse.status().str();
  EXPECT_EQ(coarse->layers, 1u);
  EXPECT_LT(coarse->stream.size(), stream.size());
  EXPECT_GT(coarse->abs_eb, full->abs_eb);
  auto reader = progressive::ProgressiveReader::open(coarse->stream);
  ASSERT_TRUE(reader.ok()) << reader.status().str();
  auto recon = (*reader)->read(coarse->layers - 1);
  ASSERT_TRUE(recon.ok()) << recon.status().str();
  EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
            coarse->abs_eb * (1 + 1e-9));

  // By target bound: asking for exactly the coarse bound gets the same
  // one-layer prefix; a target tighter than the final rung gets the whole
  // stream (best effort, not an error).
  req.mode = svc::PartialMode::kTargetBound;
  req.bound = ErrorBound::Abs(coarse->abs_eb * (1 + 1e-9));
  const auto by_bound_frame =
      server.handle_frame(svc::encode_read_partial_request(req));
  auto by_bound = svc::parse_read_partial_response(by_bound_frame);
  ASSERT_TRUE(by_bound.ok()) << by_bound.status().str();
  EXPECT_EQ(by_bound->layers, 1u);
  req.bound = ErrorBound::Abs(full->abs_eb / 1e3);
  const auto best_frame =
      server.handle_frame(svc::encode_read_partial_request(req));
  auto best = svc::parse_read_partial_response(best_frame);
  ASSERT_TRUE(best.ok()) << best.status().str();
  EXPECT_EQ(best->layers, best->total_layers);

  // The dispatch is observable: dedicated counter plus fidelity histograms.
  auto stats = svc::parse_stats_response(
      server.handle_frame(svc::encode_stats_request()));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->get("read_partial_requests"), 4u);
  EXPECT_EQ(stats->get("progressive_bytes_served_count"), 4u);
  EXPECT_EQ(stats->get("progressive_layers_served_count"), 4u);
}

TEST(Server, ReadPartialRejectsNonProgressiveStreamsTyped) {
  svc::Server server({1, "", "CESM-CLDHGH"});
  const Field f = field_for_rank(1);
  auto plain = reg().create("SZ2.1", 1).value()->compress(
      f, ErrorBound::Rel(1e-2));
  svc::ReadPartialRequest req;
  req.stream = plain;
  req.mode = svc::PartialMode::kByteBudget;
  req.budget = plain.size();
  auto err = svc::parse_error_response(
      server.handle_frame(svc::encode_read_partial_request(req)));
  ASSERT_TRUE(err.ok()) << err.status().str();
  EXPECT_EQ(err->code, ErrCode::kBadMagic);

  // A truncated AEPR (mid-layer cut) is typed too, not a crash.
  auto aepr = reg().create("progressive:SZ2.1", 1).value()->compress(
      f, ErrorBound::Rel(1e-2));
  aepr.resize(aepr.size() - 1);
  req.stream = aepr;
  req.budget = aepr.size();
  err = svc::parse_error_response(
      server.handle_frame(svc::encode_read_partial_request(req)));
  ASSERT_TRUE(err.ok()) << err.status().str();
  EXPECT_EQ(err->code, ErrCode::kTruncated);
}

// ------------------------------------------------------- tcp loopback ----

/// Acceptance criterion: a TCP loopback client↔server round trip.
TEST(TcpLoopback, ClientServerRoundTrip) {
  auto listener = svc::TcpListener::bind(0);  // ephemeral port
  ASSERT_TRUE(listener.ok()) << listener.status().str();
  svc::Server server({2, "", "CESM-CLDHGH"});
  svc::EventServer front(server, **listener, Session::one_connection());
  std::thread loop([&] { front.run(); });

  auto transport = svc::TcpTransport::connect("127.0.0.1",
                                              (*listener)->port());
  ASSERT_TRUE(transport.ok()) << transport.status().str();
  svc::Client client(**transport);

  const Field f = field_for_rank(2);
  auto compressed = client.compress("SZ2.1", f, ErrorBound::Abs(0.01));
  ASSERT_TRUE(compressed.ok()) << compressed.status().str();
  EXPECT_DOUBLE_EQ(compressed->abs_eb, 0.01);
  auto recon = client.decompress(compressed->stream, "SZ2.1");
  ASSERT_TRUE(recon.ok()) << recon.status().str();
  ASSERT_EQ(recon->dims(), f.dims());
  EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
            0.01 * (1 + 1e-9));

  // Progressive retrieval over the same connection: compress as AEPR,
  // fetch a byte-budgeted prefix, and the served layers honor the bound
  // the server reported.
  auto aepr = client.compress("progressive:SZ2.1", f, ErrorBound::Abs(0.01));
  ASSERT_TRUE(aepr.ok()) << aepr.status().str();
  auto partial = client.read_partial(aepr->stream, aepr->stream.size() / 2);
  ASSERT_TRUE(partial.ok()) << partial.status().str();
  EXPECT_LT(partial->layers, partial->total_layers);
  auto reader = progressive::ProgressiveReader::open(partial->stream);
  ASSERT_TRUE(reader.ok()) << reader.status().str();
  auto preview = (*reader)->read(partial->layers - 1);
  ASSERT_TRUE(preview.ok()) << preview.status().str();
  EXPECT_LE(metrics::max_abs_err(f.values(), preview->values()),
            partial->abs_eb * (1 + 1e-9));

  auto stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->get("requests"), 5u);
  EXPECT_EQ(stats->get("read_partial_requests"), 1u);

  (*transport)->shutdown();
  loop.join();  // accept_limit 1: run() returns once this connection closes
}

}  // namespace
}  // namespace aesz
