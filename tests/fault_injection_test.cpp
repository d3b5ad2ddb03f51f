// Deterministic fault-injection suite: the robustness acceptance gate.
//
// Every fault here is a pure function of a seed or a byte offset, so a
// failure reproduces exactly — no flaky-rerun archaeology. Four layers of
// the integrity story are exercised end to end:
//
//   1. Wire integrity: frame-CRC trailers catch every single-bit flip a
//      FaultyTransport injects, as a typed kChecksumMismatch that leaves
//      the connection synchronized (the event server answers an error
//      frame and keeps serving).
//   2. Format integrity: a full single-bit-flip sweep over every sealed
//      artifact format (v3 codec stream, AEPC container, AETC temporal
//      stream, AEPR progressive stream) decodes to a typed error or an
//      intact result — never a crash (this file runs under ASan/UBSan in
//      CI, which is where "no OOB read" is actually enforced).
//   3. Client resilience: retry with backoff + reconnect survives a
//      server kill/restart and a lossy link; deadlines and recv timeouts
//      turn hangs into typed kTimeout.
//   4. Crash consistency: a TemporalWriter append torn at EVERY byte
//      offset (FaultyFile) recovers to exactly the fully-committed
//      records, and the re-opened stream accepts further appends.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synth.hpp"
#include "obs/log.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "predictors/registry.hpp"
#include "metrics/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/container.hpp"
#include "progressive/aepr.hpp"
#include "progressive/progressive.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/fault.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "temporal/aetc.hpp"
#include "temporal/temporal.hpp"
#include "util/error.hpp"

namespace aesz {
namespace {

namespace svc = ::aesz::service;

Field small_field(double tphase = 0.0) {
  return synth::value_noise_2d(8, 10, 2, 3.0, /*seed=*/71, tphase);
}

std::span<const std::uint8_t> field_bytes(const Field& f) {
  const auto v = f.values();
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(float)};
}

std::vector<std::uint8_t> small_compress_frame() {
  const Field f = small_field();
  svc::CompressRequest req;
  req.codec = "SZ2.1";
  req.eb = ErrorBound::Abs(1e-2);
  req.dims = f.dims();
  req.field = field_bytes(f);
  return svc::encode_compress_request(req);
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

// ------------------------------------------------- fault primitives ----

TEST(FaultyFile, TearsExactlyAtBudgetAndKeepsLeadingBytes) {
  svc::FaultyFile f(6);
  const std::vector<std::uint8_t> a{1, 2, 3, 4};
  const std::vector<std::uint8_t> b{5, 6, 7, 8};
  EXPECT_TRUE(f.write(a));
  EXPECT_TRUE(f.sync());
  // The boundary write is SHORT: 2 of 4 bytes land — the torn-append
  // shape a kill -9 mid-write leaves behind.
  EXPECT_FALSE(f.write(b));
  EXPECT_TRUE(f.torn());
  EXPECT_FALSE(f.sync());
  EXPECT_EQ(f.bytes(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
  // Nothing further lands after the tear.
  EXPECT_FALSE(f.write(a));
  EXPECT_EQ(f.bytes().size(), 6u);
}

TEST(FaultyTransport, SameSeedSameFaultSchedule) {
  const auto run = [](std::uint64_t seed) {
    auto [a, b] = transport_pair();
    a->set_frame_crc(true);
    svc::FaultyTransport::Options opt;
    opt.seed = seed;
    // No resets here: a reset kills the transport and would cut the
    // schedule short (its permanence has its own test below).
    opt.drop_rate = 0.3;
    opt.flip_rate = 0.3;
    svc::FaultyTransport faulty(std::move(a), opt);
    const auto frame = svc::encode_stats_request();
    for (int i = 0; i < 60; ++i) (void)faulty.send_frame(frame);
    b->shutdown();
    return faulty.stats();
  };
  const auto s1 = run(42), s2 = run(42), s3 = run(43);
  EXPECT_EQ(s1.dropped, s2.dropped);
  EXPECT_EQ(s1.flipped, s2.flipped);
  EXPECT_EQ(s1.reset, s2.reset);
  EXPECT_EQ(s1.sends, s2.sends);
  // The schedule did inject something worth testing.
  EXPECT_GT(s1.dropped, 0u);
  EXPECT_GT(s1.flipped, 0u);
  // A different seed is a different schedule (all three equal would mean
  // the seed is ignored).
  EXPECT_TRUE(s1.dropped != s3.dropped || s1.flipped != s3.flipped ||
              s1.reset != s3.reset);
}

TEST(FaultyTransport, ResetIsPermanentAndUnblocksPeer) {
  auto [a, b] = transport_pair();
  svc::FaultyTransport::Options opt;
  opt.reset_rate = 1.0;
  svc::FaultyTransport faulty(std::move(a), opt);
  const auto frame = svc::encode_stats_request();
  auto st = faulty.send_frame(frame);
  EXPECT_EQ(st.code, ErrCode::kIoError);
  // The peer sees the connection die instead of blocking forever.
  auto r = b->recv_frame();
  EXPECT_FALSE(r.ok());
  // And the transport stays dead, like a real RST.
  EXPECT_EQ(faulty.send_frame(frame).code, ErrCode::kIoError);
  EXPECT_FALSE(faulty.recv_frame().ok());
  EXPECT_EQ(faulty.stats().reset, 1u);
}

// ---------------------------------------------------- wire integrity ----

TEST(FrameCrc, FlippedBitIsCaughtAsChecksumMismatch) {
  auto [a, b] = transport_pair();
  a->set_frame_crc(true);
  svc::FaultyTransport::Options opt;
  opt.seed = 7;
  opt.flip_rate = 1.0;
  svc::FaultyTransport faulty(std::move(a), opt);
  ASSERT_TRUE(faulty.send_frame(svc::encode_stats_request()).ok());
  EXPECT_EQ(faulty.stats().flipped, 1u);
  auto r = b->recv_frame();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code, ErrCode::kChecksumMismatch);
}

TEST(FrameCrc, ReceiverTurnsStickyAndEchoesTrailers) {
  auto [a, b] = transport_pair();
  a->set_frame_crc(true);
  EXPECT_FALSE(b->frame_crc());
  const auto req = svc::encode_stats_request();
  ASSERT_TRUE(a->send_frame(req).ok());
  auto got = b->recv_frame();
  ASSERT_TRUE(got.ok()) << got.status().str();
  EXPECT_EQ(*got, req);
  // One checksummed frame received -> this end now checksums its sends,
  // so a raw-transport server echoes trailers with no caller bookkeeping.
  EXPECT_TRUE(b->frame_crc());
  ASSERT_TRUE(b->send_frame(req).ok());
  auto back = a->recv_frame();
  ASSERT_TRUE(back.ok()) << back.status().str();
  EXPECT_EQ(*back, req);
}

/// Exhaustive wire sweep: every single-bit flip of a checksummed wire
/// image must surface as a typed error — or, when the flip lands in the
/// prefix/trailer and the BODY still arrives whole, as the intact body.
/// Body-region flips specifically must be kChecksumMismatch: that is the
/// trailer's whole job.
void sweep_wire(std::span<const std::uint8_t> frame) {
  const auto wire = svc::frame_wire(frame, /*with_crc=*/true);
  const std::size_t body_begin = 4 * 8;
  const std::size_t body_end = (4 + frame.size()) * 8;
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    auto damaged = wire;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    auto [a, b] = transport_pair();
    ASSERT_TRUE(a->send_raw(damaged).ok());
    a->shutdown();  // a short read must end in EOF, not a hang
    auto r = b->recv_frame();
    if (bit >= body_begin && bit < body_end) {
      ASSERT_FALSE(r.ok()) << "body bit " << bit << " went unnoticed";
      EXPECT_EQ(r.status().code, ErrCode::kChecksumMismatch)
          << "body bit " << bit;
    } else if (r.ok()) {
      // Flip landed in prefix or trailer; if the frame was accepted at
      // all, the delivered body must be byte-identical to the original.
      EXPECT_EQ(std::span<const std::uint8_t>(*r).size(), frame.size())
          << "prefix/trailer bit " << bit;
      EXPECT_EQ(0, std::memcmp(r->data(), frame.data(), frame.size()))
          << "prefix/trailer bit " << bit;
    }
    // !r.ok() outside the body region is fine: kCorruptStream (hostile
    // length), kIoError (EOF mid-frame), kChecksumMismatch (trailer bit).
  }
}

TEST(FrameCrc, EveryWireBitFlipIsTypedOrIntactSmallFrame) {
  sweep_wire(svc::encode_stats_request());
}

TEST(FrameCrc, EveryWireBitFlipIsTypedOrIntactCompressFrame) {
  sweep_wire(small_compress_frame());
}

TEST(FrameCrc, EventServerAnswersMismatchAndConnectionSurvives) {
  EventHarness h;
  auto t = h.connect();
  ASSERT_TRUE(t != nullptr);
  t->set_frame_crc(true);

  // Hand-corrupt a checksummed request ON THE WIRE (past the transport's
  // own CRC computation) and ship it raw.
  const auto req = svc::encode_stats_request();
  auto wire = svc::frame_wire(req, /*with_crc=*/true);
  wire[4] ^= 0x40;  // one bit of the body
  ASSERT_TRUE(t->send_raw(wire).ok());
  auto r1 = t->recv_frame();
  ASSERT_TRUE(r1.ok()) << r1.status().str();
  auto err = svc::parse_error_response(*r1);
  ASSERT_TRUE(err.ok()) << err.status().str();
  EXPECT_EQ(err->code, ErrCode::kChecksumMismatch);

  // The length prefix was intact, so the stream is still synchronized:
  // the SAME connection serves the next (clean) request.
  ASSERT_TRUE(t->send_frame(req).ok());
  auto r2 = t->recv_frame();
  ASSERT_TRUE(r2.ok()) << r2.status().str();
  auto stats = svc::parse_stats_response(*r2);
  ASSERT_TRUE(stats.ok()) << stats.status().str();
  t->shutdown();
}

TEST(FrameCrc, ClientRoundTripsWithChecksummedFramesOverEventServer) {
  EventHarness h;
  auto t = h.connect();
  ASSERT_TRUE(t != nullptr);
  svc::Client client(*t);
  client.set_frame_crc(true);
  const Field f = small_field();
  auto compressed = client.compress("SZ2.1", f, ErrorBound::Abs(1e-2));
  ASSERT_TRUE(compressed.ok()) << compressed.status().str();
  auto recon = client.decompress(compressed->stream, "SZ2.1");
  ASSERT_TRUE(recon.ok()) << recon.status().str();
  EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
            1e-2 * (1 + 1e-9));
  t->shutdown();
}

// -------------------------------------------------- format integrity ----

/// How many damaged variants of an artifact ended in each verdict
/// (kOk = decoded intact). Printed as "code=count ..." in ErrCode order so
/// a changed acceptance set or check order shows up as a readable diff.
using Verdicts = std::map<ErrCode, std::size_t>;

std::string str(const Verdicts& v) {
  std::string out;
  for (const auto& [code, n] : v) {
    if (!out.empty()) out += ' ';
    out += errcode_name(code);
    out += '=';
    out += std::to_string(n);
  }
  return out;
}

/// Run `probe` on one damaged variant and tally its verdict; a thrown
/// aesz::Error is still a typed verdict, not a crash.
template <typename Probe>
void tally(Verdicts& v, std::span<const std::uint8_t> damaged, Probe& probe) {
  try {
    ++v[probe(damaged)];
  } catch (const Error& e) {
    ++v[e.code()];
  }
}

/// Run `probe` against every single-bit flip of `artifact`. The probe
/// must return a typed verdict (ok or error) without crashing; the sweep
/// additionally asserts the checksums actually fire somewhere.
template <typename Probe>
Verdicts sweep_artifact(std::span<const std::uint8_t> artifact,
                        Probe&& probe) {
  Verdicts v;
  for (std::size_t bit = 0; bit < artifact.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged(artifact.begin(), artifact.end());
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    tally(v, damaged, probe);
  }
  EXPECT_GT(v[ErrCode::kChecksumMismatch], 0u)
      << "no flip ever tripped a checksum";
  return v;
}

/// Run `probe` against every proper prefix of `artifact` (lengths 0 to
/// size - 1): the truncation counterpart of sweep_artifact.
template <typename Probe>
Verdicts sweep_truncations(std::span<const std::uint8_t> artifact,
                           Probe&& probe) {
  Verdicts v;
  for (std::size_t n = 0; n < artifact.size(); ++n) {
    const std::vector<std::uint8_t> prefix(artifact.begin(),
                                           artifact.begin() + n);
    tally(v, prefix, probe);
  }
  return v;
}

constexpr ErrCode kFlipSurvived = ErrCode::kOk;

TEST(FormatBitFlips, SealedCodecStreamCatchesEveryFlip) {
  auto codec = CodecRegistry::instance().create("SZ2.1", 2).value();
  const Field f = small_field();
  const auto stream = codec->compress(f, ErrorBound::Abs(1e-2));
  std::size_t undetected = 0;
  Verdicts v =
      sweep_artifact(stream, [&](std::span<const std::uint8_t> damaged) {
        auto r = codec->decompress(damaged);
        if (r.ok()) ++undetected;
        return r.ok() ? kFlipSurvived : r.status().code;
      });
  // The v3 whole-payload CRC covers everything past the fixed header, and
  // header flips hit magic/version/CRC-field checks: NO single-bit flip
  // of a sealed stream may decode successfully.
  EXPECT_EQ(undetected, 0u);
  // Most of the stream is CRC-covered payload.
  EXPECT_GT(v[ErrCode::kChecksumMismatch], stream.size() * 8 / 2);
}

// The three container sweeps below pin the EXACT verdict counts, not just
// "typed or intact": a parser that accepts a different set of damaged
// inputs, or checks fields in a different order (and so reports a
// different code for the same damage), changes a count.

TEST(FormatBitFlips, ContainerParseIsTypedOrIntact) {
  // A real AEPC container: the chunked (parallel) compressor's output.
  pipeline::ParallelCompressor::Options popt;
  popt.inner = "SZ2.1";
  popt.threads = 1;
  popt.chunk_rows = 4;  // several chunks -> several table CRCs
  pipeline::ParallelCompressor chunked(popt, /*rank_hint=*/2);
  const Field f = synth::value_noise_2d(16, 10, 2, 3.0, 71, 0.0);
  const auto artifact = chunked.compress(f, ErrorBound::Abs(1e-2));
  ASSERT_EQ(CodecRegistry::instance().identify(artifact).value(),
            "parallel:SZ2.1");

  const auto probe = [&](std::span<const std::uint8_t> damaged) {
    auto info = pipeline::read_container(damaged);
    return info.ok() ? kFlipSurvived : info.status().code;
  };
  EXPECT_EQ(str(sweep_artifact(artifact, probe)),
            "ok=175 truncated=17 bad_magic=32 bad_header=31 "
            "corrupt_stream=57 checksum_mismatch=3168");
  EXPECT_EQ(str(sweep_truncations(artifact, probe)),
            "truncated=427 bad_header=8");
}

TEST(FormatBitFlips, TemporalStreamIsTypedOrIntact) {
  temporal::TemporalWriter::Options opt;
  opt.gop = 4;
  temporal::TemporalWriter w(Dims(8, 10), ErrorBound::Abs(1e-2), opt);
  for (int t = 0; t < 3; ++t)
    w.append(small_field(0.08 * static_cast<double>(t)));
  const auto artifact = w.bytes();

  const auto probe = [&](std::span<const std::uint8_t> damaged) {
    auto info = temporal::read_stream(damaged);
    if (!info.ok()) return info.status().code;
    // Header bits (dims/eb/gop are not CRC-covered) can flip without
    // breaking the parse; decoding must still end in a typed verdict.
    auto reader = temporal::TemporalReader::open(damaged);
    if (!reader.ok()) return reader.status().code;
    auto last = (*reader)->read(info->records.size() - 1);
    return last.ok() ? kFlipSurvived : last.status().code;
  };
  EXPECT_EQ(str(sweep_artifact(artifact, probe)),
            "ok=74 truncated=30 bad_magic=32 bad_header=43 "
            "corrupt_stream=405 unsupported=28 checksum_mismatch=2524");
  EXPECT_EQ(str(sweep_truncations(artifact, probe)),
            "truncated=32 corrupt_stream=360");
  // The recovery parse sees the same damage through its own walk.
  const auto recover = [&](std::span<const std::uint8_t> damaged) {
    auto info = temporal::recover_stream(damaged);
    return info.ok() ? kFlipSurvived : info.status().code;
  };
  EXPECT_EQ(str(sweep_artifact(artifact, recover)),
            "ok=527 truncated=1 bad_magic=32 bad_header=43 "
            "checksum_mismatch=2533");
  EXPECT_EQ(str(sweep_truncations(artifact, recover)),
            "ok=368 truncated=24");
}

TEST(FormatBitFlips, ProgressiveStreamIsTypedOrIntact) {
  progressive::ProgressiveWriter::Options opt;
  opt.layers = 3;
  progressive::ProgressiveWriter w(opt);
  const Field f = small_field();
  const auto artifact = w.encode(f, ErrorBound::Abs(1e-2));

  const auto probe = [&](std::span<const std::uint8_t> damaged) {
    auto info = progressive::read_stream(damaged);
    if (!info.ok()) return info.status().code;
    auto reader = progressive::ProgressiveReader::open(damaged);
    if (!reader.ok()) return reader.status().code;
    auto full = (*reader)->read(info->present - 1);
    return full.ok() ? kFlipSurvived : full.status().code;
  };
  EXPECT_EQ(str(sweep_artifact(artifact, probe)),
            "ok=298 truncated=4 bad_magic=32 bad_header=45 "
            "corrupt_stream=97 unsupported=28 checksum_mismatch=2096");
  EXPECT_EQ(str(sweep_truncations(artifact, probe)),
            "ok=2 truncated=323");
}

// ------------------------------------------------------ deadlines ----

TEST(Deadline, ExpiredQueueWaitAnswersTypedTimeout) {
  svc::Server server({1, "", ""});
  const auto inner = svc::encode_list_codecs_request();
  const auto env = svc::encode_deadline_request({/*deadline_ms=*/5, inner});

  // Simulate a request that sat in the queue past its budget: a trace
  // admitted 50 ms ago (submit() stamps admit_ns the same way).
  obs::RequestTrace t;
  t.admit_ns = obs::monotonic_ns() - 50'000'000ull;
  {
    obs::TraceScope scope(&t);
    auto err = svc::parse_error_response(server.handle_frame(env));
    ASSERT_TRUE(err.ok()) << err.status().str();
    EXPECT_EQ(err->code, ErrCode::kTimeout);
  }

  // The same envelope with headroom unwraps and serves the inner request.
  auto ok = svc::parse_list_codecs_response(server.handle_frame(
      svc::encode_deadline_request({/*deadline_ms=*/60'000, inner})));
  ASSERT_TRUE(ok.ok()) << ok.status().str();
  EXPECT_FALSE(ok->empty());

  // And deadline 0 means "no budget".
  auto unbounded = svc::parse_list_codecs_response(
      server.handle_frame(svc::encode_deadline_request({0, inner})));
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().str();

  EXPECT_EQ(server.snapshot().get("deadline_requests"), 3u);
  EXPECT_EQ(server.snapshot().get("timeout_responses"), 1u);
}

TEST(Deadline, NestedEnvelopeAndResponseOpsAreRejected) {
  svc::Server server({1, "", ""});
  const auto inner = svc::encode_list_codecs_request();
  const auto env = svc::encode_deadline_request({10, inner});
  auto nested = svc::parse_error_response(
      server.handle_frame(svc::encode_deadline_request({10, env})));
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->code, ErrCode::kBadHeader);

  const auto resp = svc::encode_error_response({ErrCode::kInternal, "x"});
  auto wrapped = svc::parse_error_response(
      server.handle_frame(svc::encode_deadline_request({10, resp})));
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->code, ErrCode::kBadHeader);
}

TEST(Deadline, ClientDeadlineEnvelopePassesThroughServer) {
  svc::Server server({1, "", ""});
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  svc::TcpTransport client_end(fds[0]);
  svc::EventServer::Options one_connection;
  one_connection.accept_limit = 1;
  svc::EventServer front(server, one_connection);
  front.adopt(fds[1]);
  std::thread session([&] { front.run(); });
  svc::Client client(client_end);
  client.set_deadline_ms(60'000);  // generous: proves the envelope path
  const Field f = small_field();
  auto compressed = client.compress("SZ2.1", f, ErrorBound::Abs(1e-2));
  ASSERT_TRUE(compressed.ok()) << compressed.status().str();
  auto codecs = client.list_codecs();
  ASSERT_TRUE(codecs.ok()) << codecs.status().str();
  client_end.shutdown();
  session.join();
  EXPECT_EQ(server.snapshot().get("deadline_requests"), 2u);
}

// ------------------------------------------------- client resilience ----

TEST(Retry, BackoffDoublesJittersAndCaps) {
  svc::RetryPolicy p;
  p.base_delay_ms = 10;
  p.max_delay_ms = 100;
  p.jitter = 0.0;
  EXPECT_EQ(p.delay_ms(1), 10u);
  EXPECT_EQ(p.delay_ms(2), 20u);
  EXPECT_EQ(p.delay_ms(3), 40u);
  EXPECT_EQ(p.delay_ms(5), 100u);   // capped
  EXPECT_EQ(p.delay_ms(60), 100u);  // shift overflow guarded, still capped

  p.jitter = 0.25;
  for (std::size_t attempt = 1; attempt <= 3; ++attempt) {
    const auto d = p.delay_ms(attempt);
    const double nominal = 10.0 * static_cast<double>(1u << (attempt - 1));
    EXPECT_GE(d, static_cast<std::uint64_t>(nominal * 0.75) - 1);
    EXPECT_LE(d, static_cast<std::uint64_t>(nominal * 1.25) + 1);
    // Same policy, same attempt -> same jitter: deterministic schedules.
    EXPECT_EQ(d, p.delay_ms(attempt));
  }
  svc::RetryPolicy q = p;
  q.seed = p.seed + 1;
  bool differs = false;
  for (std::size_t attempt = 1; attempt <= 8 && !differs; ++attempt)
    differs = q.delay_ms(attempt) != p.delay_ms(attempt);
  EXPECT_TRUE(differs) << "jitter ignores the seed";
}

TEST(Retry, OnlyTransientFailuresRetryAndAttemptsAreCounted) {
  svc::RetryPolicy p;
  p.max_attempts = 4;
  std::vector<std::uint64_t> slept;
  const svc::SleepFn fake_sleep = [&](std::uint64_t ms) {
    slept.push_back(ms);
  };

  // Transient failure heals on the third try.
  int calls = 0;
  auto healed = svc::with_retry(
      p,
      [&]() -> Status {
        return ++calls < 3 ? Status::error(ErrCode::kIoError, "flaky")
                           : Status();
      },
      nullptr, fake_sleep);
  EXPECT_TRUE(healed.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(slept.size(), 2u);

  // Non-retryable failures return immediately: no sleeps, one call.
  calls = 0;
  slept.clear();
  auto fatal = svc::with_retry(
      p,
      [&]() -> Status {
        ++calls;
        return Status::error(ErrCode::kInvalidArgument, "bad codec");
      },
      nullptr, fake_sleep);
  EXPECT_EQ(fatal.code, ErrCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());

  // Exhaustion returns the last failure verbatim after max_attempts.
  calls = 0;
  int retries_seen = 0;
  auto exhausted = svc::with_retry(
      p,
      [&]() -> Expected<int> {
        ++calls;
        return Status::error(ErrCode::kTimeout, "still waiting");
      },
      [&](const Status& failure) {
        ++retries_seen;
        EXPECT_EQ(failure.code, ErrCode::kTimeout);
      },
      fake_sleep);
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code, ErrCode::kTimeout);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retries_seen, 3);

  // A wire-corruption verdict is transient too (the stream stayed
  // frame-synchronized, a resend is safe).
  EXPECT_TRUE(p.retryable(ErrCode::kChecksumMismatch));
  EXPECT_TRUE(p.retryable(ErrCode::kOverloaded));
  EXPECT_FALSE(p.retryable(ErrCode::kBadMagic));
}

TEST(Retry, ClientSurvivesServerKillAndRestart) {
  std::atomic<std::uint16_t> port{0};
  auto h1 = std::make_unique<EventHarness>();
  port.store(h1->listener->port());

  auto t = svc::TcpTransport::connect("127.0.0.1", port.load());
  ASSERT_TRUE(t.ok()) << t.status().str();
  svc::Client client(**t);
  svc::RetryPolicy policy;
  policy.max_attempts = 5;
  client.set_retry(
      policy,
      [&]() -> Expected<std::unique_ptr<svc::Transport>> {
        auto fresh = svc::TcpTransport::connect("127.0.0.1", port.load());
        if (!fresh.ok()) return fresh.status();
        return std::unique_ptr<svc::Transport>(std::move(*fresh));
      },
      [](std::uint64_t) {});  // no wall-clock waits in the schedule

  auto before = client.list_codecs();
  ASSERT_TRUE(before.ok()) << before.status().str();

  // Kill the server, restart on a NEW port (the old one is gone for
  // real), and the same client call succeeds via retry + reconnect.
  h1.reset();
  EventHarness h2;
  port.store(h2.listener->port());
  auto after = client.list_codecs();
  ASSERT_TRUE(after.ok()) << after.status().str();
  EXPECT_EQ(before->size(), after->size());
}

TEST(Retry, LossyLinkWithChecksumsEventuallyServesEveryRequest) {
  EventHarness h;
  const std::uint16_t port = h.listener->port();
  std::uint64_t next_seed = 1000;
  std::uint64_t total_faults = 0;
  const svc::FaultyTransport* live = nullptr;

  const auto make_faulty =
      [&]() -> Expected<std::unique_ptr<svc::Transport>> {
    auto tcp = svc::TcpTransport::connect("127.0.0.1", port);
    if (!tcp.ok()) return tcp.status();
    // A dropped frame would otherwise hang the response read forever;
    // the recv timeout turns it into a typed, retryable kTimeout.
    (*tcp)->set_recv_timeout_ms(200);
    svc::FaultyTransport::Options opt;
    opt.seed = next_seed++;
    opt.drop_rate = 0.25;
    opt.flip_rate = 0.15;
    opt.reset_rate = 0.05;
    auto faulty =
        std::make_unique<svc::FaultyTransport>(std::move(*tcp), opt);
    if (live != nullptr) {
      total_faults += live->stats().dropped + live->stats().flipped +
                      live->stats().reset;
    }
    live = faulty.get();
    return std::unique_ptr<svc::Transport>(std::move(faulty));
  };

  auto first = make_faulty();
  ASSERT_TRUE(first.ok()) << first.status().str();
  auto transport = std::move(*first);
  svc::Client client(*transport);
  client.set_frame_crc(true);
  svc::RetryPolicy policy;
  policy.max_attempts = 10;
  client.set_retry(
      policy,
      [&]() -> Expected<std::unique_ptr<svc::Transport>> {
        return make_faulty();
      },
      [](std::uint64_t) {});  // backoff schedule without wall-clock cost

  const Field f = small_field();
  for (int i = 0; i < 12; ++i) {
    auto compressed = client.compress("SZ2.1", f, ErrorBound::Abs(1e-2));
    ASSERT_TRUE(compressed.ok()) << "op " << i << ": "
                                 << compressed.status().str();
    auto recon = client.decompress(compressed->stream, "SZ2.1");
    ASSERT_TRUE(recon.ok()) << "op " << i << ": " << recon.status().str();
    EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
              1e-2 * (1 + 1e-9));
  }
  total_faults +=
      live->stats().dropped + live->stats().flipped + live->stats().reset;
  EXPECT_GT(total_faults, 0u) << "chaos schedule never fired";
}

TEST(RecvTimeout, SilentPeerSurfacesTypedTimeoutAndStreamRecovers) {
  EventHarness h;
  auto t = h.connect();
  ASSERT_TRUE(t != nullptr);
  t->set_recv_timeout_ms(50);
  // No request sent: the server has nothing to say, so the recv must
  // time out instead of hanging.
  auto r = t->recv_frame();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code, ErrCode::kTimeout);
  // The timeout consumed no bytes; the connection is still usable.
  ASSERT_TRUE(t->send_frame(svc::encode_stats_request()).ok());
  auto r2 = t->recv_frame();
  ASSERT_TRUE(r2.ok()) << r2.status().str();
  EXPECT_TRUE(svc::parse_stats_response(*r2).ok());
  t->shutdown();
}

// ----------------------------------------------- crash consistency ----

/// S3 acceptance: kill the writer at EVERY byte offset of a sync-mode
/// append (body, then footer — the aesz_cli --sync write order) and the
/// surviving bytes always recover to exactly the fully-committed records,
/// after which appending resumes.
TEST(CrashConsistency, EveryByteOffsetOfAnAppendRecovers) {
  temporal::TemporalWriter::Options opt;
  opt.gop = 4;
  const Dims dims(8, 10);
  const ErrorBound eb = ErrorBound::Abs(1e-2);
  temporal::TemporalWriter w(dims, eb, opt);
  for (int t = 0; t < 4; ++t)
    w.append(small_field(0.08 * static_cast<double>(t)));

  const std::vector<std::uint8_t> body(w.body().begin(), w.body().end());
  const std::vector<std::uint8_t> footer = w.footer();
  // bytes() assembles a fresh artifact per call — parse ONE copy so the
  // StreamInfo spans stay anchored to live storage.
  const std::vector<std::uint8_t> artifact = w.bytes();
  const auto info = temporal::read_stream(artifact);
  ASSERT_TRUE(info.ok()) << info.status().str();
  ASSERT_EQ(info->records.size(), 4u);

  const std::size_t total = body.size() + footer.size();
  std::size_t header_failures = 0;
  for (std::size_t budget = 0; budget <= total; ++budget) {
    svc::FaultyFile disk(budget);
    disk.write(body);
    disk.write(footer);
    ASSERT_EQ(disk.bytes().size(), std::min(budget, total));

    auto recovered = temporal::recover_stream(disk.bytes());
    if (!recovered.ok()) {
      // Only a torn HEADER is unrecoverable — there is no stream yet.
      // Any complete header must recover, however torn the tail.
      EXPECT_LT(budget, info->body_bytes) << "budget " << budget;
      ++header_failures;
      continue;
    }
    // Exactly the records whose every byte landed; a torn record or a
    // torn footer never invents or loses a committed timestep.
    std::size_t committed = 0;
    for (const auto& rec : info->records)
      committed += rec.offset + rec.length <= budget ? 1 : 0;
    ASSERT_EQ(recovered->records.size(), committed) << "budget " << budget;

    // Re-open for append at every offset; decode-verify sparsely (the
    // sweep is O(file bytes) opens already).
    auto reopened =
        temporal::TemporalWriter::open(disk.bytes(), opt, /*recover=*/true);
    ASSERT_TRUE(reopened.ok())
        << "budget " << budget << ": " << reopened.status().str();
    const Field next = small_field(0.5);
    (*reopened)->append(next);
    if (budget % 37 == 0 || budget == total) {
      const std::vector<std::uint8_t> extended = (*reopened)->bytes();
      auto full = temporal::read_stream(extended);
      ASSERT_TRUE(full.ok()) << full.status().str();
      ASSERT_EQ(full->records.size(), committed + 1);
      auto reader = temporal::TemporalReader::open(extended);
      ASSERT_TRUE(reader.ok()) << reader.status().str();
      auto back = (*reader)->read(committed);
      ASSERT_TRUE(back.ok()) << back.status().str();
      EXPECT_LE(metrics::max_abs_err(next.values(), back->values()),
                1e-2 * (1 + 1e-9));
    }
  }
  // The sweep covered both regimes.
  EXPECT_GT(header_failures, 0u);
  EXPECT_LT(header_failures, total);
}

TEST(CrashConsistency, CorruptRecordIsAHardErrorNotATornTail) {
  temporal::TemporalWriter::Options opt;
  opt.gop = 4;
  temporal::TemporalWriter w(Dims(8, 10), ErrorBound::Abs(1e-2), opt);
  for (int t = 0; t < 3; ++t)
    w.append(small_field(0.08 * static_cast<double>(t)));
  // bytes() assembles a fresh artifact per call; parse ONE copy so the
  // payload spans below stay anchored to it.
  const std::vector<std::uint8_t> artifact = w.bytes();
  const auto info = temporal::read_stream(artifact);
  ASSERT_TRUE(info.ok());

  // Flip one payload bit inside the SECOND record: recovery must refuse
  // (checksum mismatch) rather than silently resume after damaged data.
  std::vector<std::uint8_t> damaged = artifact;
  const auto& rec = info->records[1];
  const std::size_t payload_off =
      static_cast<std::size_t>(rec.payload.data() - artifact.data());
  damaged[payload_off + rec.payload.size() / 2] ^= 0x10;
  auto recovered = temporal::recover_stream(damaged);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code, ErrCode::kChecksumMismatch);
}

}  // namespace
}  // namespace aesz
