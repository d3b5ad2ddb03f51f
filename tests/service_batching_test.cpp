// Cross-request inference batching: AESZ::compress_batch must be
// byte-identical to solo compress for every batch composition (the
// server's coalescing is then invisible to clients), the server's batching
// scheduler must coalesce compatible queued requests (and only those), and
// parallel:AE-SZ must stop re-loading models per request.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/aesz.hpp"
#include "data/synth.hpp"
#include "predictors/registry.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"

namespace aesz {
namespace {

namespace svc = ::aesz::service;

/// One connection served by an EventServer on its own thread: the server
/// adopts one end of a socketpair, the test talks through `client`.
/// close() shuts the client end down and waits until the server has
/// answered everything and closed its end.
struct Session {
  explicit Session(svc::Server& server) : front(server, one_connection()) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client = std::make_unique<svc::TcpTransport>(fds[0]);
    front.adopt(fds[1]);
    loop = std::thread([this] { front.run(); });
  }
  ~Session() { close(); }
  void close() {
    client->shutdown();
    if (loop.joinable()) loop.join();
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

AESZ::Options tiny_options() {
  AESZ::Options opt;
  opt.ae.rank = 2;
  opt.ae.block = 16;
  opt.ae.latent = 8;
  opt.ae.channels = {4, 8};
  return opt;
}

std::vector<Field> tiny_fields(std::size_t n) {
  std::vector<Field> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(synth::cesm_cldhgh(32 + 8 * (i % 3), 48, /*timestep=*/
                                     static_cast<int>(20 + i)));
  return out;
}

TEST(CompressBatch, ByteIdenticalToSoloForEveryBatchSize) {
  AESZ codec(tiny_options(), /*seed=*/7);
  const auto fields = tiny_fields(8);
  // Per-field solo reference streams.
  std::vector<std::vector<std::uint8_t>> solo;
  for (std::size_t i = 0; i < fields.size(); ++i)
    solo.push_back(codec.compress(fields[i], ErrorBound::Rel(1e-2)));

  for (std::size_t n = 1; n <= fields.size(); ++n) {
    std::vector<const Field*> ptrs;
    std::vector<ErrorBound> ebs;
    for (std::size_t i = 0; i < n; ++i) {
      ptrs.push_back(&fields[i]);
      ebs.push_back(ErrorBound::Rel(1e-2));
    }
    const auto batched = codec.compress_batch(ptrs, ebs);
    ASSERT_EQ(batched.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(batched[i], solo[i]) << "batch size " << n << ", field "
                                     << i;
  }
}

TEST(CompressBatch, MixedBoundsStayIndependent) {
  AESZ codec(tiny_options(), /*seed=*/7);
  const auto fields = tiny_fields(3);
  const std::vector<ErrorBound> ebs = {ErrorBound::Rel(1e-1),
                                       ErrorBound::Rel(1e-2),
                                       ErrorBound::Abs(5e-3)};
  std::vector<const Field*> ptrs;
  for (const Field& f : fields) ptrs.push_back(&f);
  const auto batched = codec.compress_batch(ptrs, ebs);
  ASSERT_EQ(batched.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(batched[i], codec.compress(fields[i], ebs[i])) << i;
  // Streams really decode under their own bounds.
  for (std::size_t i = 0; i < 3; ++i) {
    auto round = codec.decompress(batched[i]);
    ASSERT_TRUE(round.ok());
    EXPECT_EQ(round->dims().total(), fields[i].dims().total());
  }
}

TEST(CompressBatch, SizeMismatchIsTyped) {
  AESZ codec(tiny_options(), /*seed=*/7);
  const auto fields = tiny_fields(2);
  std::vector<const Field*> ptrs = {&fields[0], &fields[1]};
  EXPECT_THROW(codec.compress_batch(ptrs, {ErrorBound::Rel(1e-2)}), Error);
}

// --------------------------------------------------------- scheduler ----

/// Pipelined AE-SZ requests over one connection must coalesce into one
/// compress_batch execution — and the streams must equal what a
/// never-batching server produces.
TEST(BatchingScheduler, CoalescesPipelinedRequestsByteIdentically) {
  const auto fields = tiny_fields(8);
  std::vector<const Field*> ptrs;
  for (const Field& f : fields) ptrs.push_back(&f);

  svc::Server::Options batching;
  batching.max_batch = 8;
  batching.batch_delay_us = 300000;  // generous: the full group ends it early
  svc::Server server(batching);

  svc::Server::Options solo_opt;
  solo_opt.max_batch = 1;  // coalescing disabled
  svc::Server solo_server(solo_opt);

  Session session(server);
  svc::Client client(*session.client);

  const auto batched = client.compress_many("AE-SZ", ptrs, ErrorBound::Rel(1e-2));
  ASSERT_EQ(batched.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) ASSERT_TRUE(batched[i].ok()) << i;

  session.close();

  const auto snap = server.snapshot();
  EXPECT_EQ(snap.get("batched_requests"), 8u);
  EXPECT_GE(snap.get("batch_executions"), 1u);
  // All eight landed in one group: one observation of size 8.
  EXPECT_EQ(snap.get("batch_size_count"), 1u);
  EXPECT_EQ(snap.get("batch_size_sum"), 8u);
  EXPECT_EQ(snap.get("error_responses"), 0u);

  for (std::size_t i = 0; i < 8; ++i) {
    const auto reference =
        solo_server.handle_frame([&] {
          const auto floats = fields[i].values();
          svc::CompressRequest req;
          req.codec = "AE-SZ";
          req.eb = ErrorBound::Rel(1e-2);
          req.dims = fields[i].dims();
          req.field = {reinterpret_cast<const std::uint8_t*>(floats.data()),
                       floats.size() * sizeof(float)};
          return svc::encode_compress_request(req);
        }());
    auto parsed = svc::parse_compress_response(reference);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(batched[i]->stream.size() == parsed->stream.size() &&
                std::memcmp(batched[i]->stream.data(), parsed->stream.data(),
                            parsed->stream.size()) == 0)
        << "stream " << i << " differs between batched and solo server";
  }
  EXPECT_EQ(solo_server.snapshot().get("batched_requests"), 0u);
}

svc::Server::Options coalescing() {
  svc::Server::Options opt;
  opt.max_batch = 8;
  opt.batch_delay_us = 300000;  // generous: the full group ends it early
  return opt;
}

svc::Server::Options never_coalescing() {
  svc::Server::Options opt;
  opt.max_batch = 1;
  return opt;
}

/// Pipeline `frames` over one connection to `server` and return the raw
/// response frames in request order.
std::vector<std::vector<std::uint8_t>> exchange(
    svc::Server& server, const std::vector<std::vector<std::uint8_t>>& frames) {
  Session session(server);
  for (const auto& f : frames) EXPECT_TRUE(session.client->send_frame(f).ok());
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto response = session.client->recv_frame();
    EXPECT_TRUE(response.ok()) << i;
    out.push_back(response.ok() ? std::move(*response)
                                : std::vector<std::uint8_t>{});
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> aesz_frames(
    const std::vector<Field>& fields, const std::vector<ErrorBound>& ebs) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const auto floats = fields[i].values();
    svc::CompressRequest req;
    req.codec = "AE-SZ";
    req.eb = ebs[i];
    req.dims = fields[i].dims();
    req.field = {reinterpret_cast<const std::uint8_t*>(floats.data()),
                 floats.size() * sizeof(float)};
    frames.push_back(svc::encode_compress_request(req));
  }
  return frames;
}

/// Coalescing is invisible in the per-request rows: the same pipelined
/// frames leave the same counts and sizes on a batching server as on one
/// that never batches.
TEST(BatchingScheduler, PerRequestRowsMatchNeverBatchingServer) {
  const auto frames = aesz_frames(
      tiny_fields(8), std::vector<ErrorBound>(8, ErrorBound::Rel(1e-2)));
  svc::Server batching(coalescing());
  svc::Server solo(never_coalescing());
  (void)exchange(batching, frames);
  (void)exchange(solo, frames);
  const auto b = batching.snapshot();
  const auto s = solo.snapshot();
  EXPECT_EQ(b.get("batched_requests"), 8u);
  EXPECT_EQ(s.get("batched_requests"), 0u);
  for (const char* row :
       {"requests", "compress_requests", "bytes_in", "bytes_out",
        "error_responses", "request_ns_compress_count",
        "request_bytes_in_sum", "response_bytes_out_sum"})
    EXPECT_EQ(b.get(row), s.get(row)) << row;
  EXPECT_EQ(b.get("codec_cache_hits") + b.get("codec_cache_misses"),
            s.get("codec_cache_hits") + s.get("codec_cache_misses"));
}

/// One unusable bound in a group makes compress_batch throw; the group is
/// redone solo, so the seven good requests still get the solo streams and
/// the bad one gets exactly the solo server's error frame.
TEST(BatchingScheduler, FailingMemberRedoesGroupSoloByteIdentically) {
  std::vector<ErrorBound> ebs(8, ErrorBound::Rel(1e-2));
  ebs[5] = ErrorBound::Abs(-1.0);
  const auto frames = aesz_frames(tiny_fields(8), ebs);
  svc::Server batching(coalescing());
  svc::Server solo(never_coalescing());
  const auto got = exchange(batching, frames);
  const auto want = exchange(solo, frames);
  ASSERT_EQ(got.size(), 8u);
  ASSERT_EQ(want.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto op = svc::peek_op(want[i]);
    ASSERT_TRUE(op.ok()) << i;
    EXPECT_EQ(*op, i == 5 ? svc::Op::kErrorResponse
                          : svc::Op::kCompressResponse)
        << i;
    EXPECT_EQ(got[i], want[i]) << "response " << i << " differs";
  }
  const auto snap = batching.snapshot();
  EXPECT_EQ(snap.get("batched_requests"), 8u);
  EXPECT_EQ(snap.get("batch_size_sum"), 8u);
  EXPECT_EQ(snap.get("error_responses"), 1u);
  EXPECT_EQ(solo.snapshot().get("error_responses"), 1u);
}

/// Interleaving a non-batchable codec between AE-SZ requests must not pull
/// it into a batch group, and every response must still be correct and
/// ordered.
TEST(BatchingScheduler, MixedCodecQueuesDoNotCoalesce) {
  svc::Server::Options opt;
  opt.max_batch = 8;
  opt.batch_delay_us = 100000;
  svc::Server server(opt);

  Session session(server);
  svc::TcpTransport& client_end = *session.client;

  const auto fields = tiny_fields(4);
  // Interleave: AE-SZ, SZ2.1, AE-SZ, SZ2.1 — pipelined on one connection.
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto floats = fields[i].values();
    svc::CompressRequest req;
    req.codec = (i % 2 == 0) ? "AE-SZ" : "SZ2.1";
    req.eb = ErrorBound::Abs(0.01 * static_cast<double>(i + 1));
    req.dims = fields[i].dims();
    req.field = {reinterpret_cast<const std::uint8_t*>(floats.data()),
                 floats.size() * sizeof(float)};
    frames.push_back(svc::encode_compress_request(req));
  }
  for (const auto& f : frames) ASSERT_TRUE(client_end.send_frame(f).ok());
  for (std::size_t i = 0; i < 4; ++i) {
    auto response = client_end.recv_frame();
    ASSERT_TRUE(response.ok()) << i;
    auto parsed = svc::parse_compress_response(*response);
    ASSERT_TRUE(parsed.ok()) << i;
    // Ordered correspondence: the echoed resolved bound identifies the
    // request this response answers.
    EXPECT_DOUBLE_EQ(parsed->abs_eb, 0.01 * static_cast<double>(i + 1));
    // The stream must identify as the codec the request named.
    auto identified = CodecRegistry::instance().identify(parsed->stream);
    ASSERT_TRUE(identified.ok());
    EXPECT_EQ(*identified, (i % 2 == 0) ? "AE-SZ" : "SZ2.1");
  }
  session.close();

  const auto snap = server.snapshot();
  // Only the two AE-SZ requests rode the batcher.
  EXPECT_EQ(snap.get("batched_requests"), 2u);
  EXPECT_EQ(snap.get("error_responses"), 0u);
}

// ------------------------------------------- parallel:AE-SZ warm workers ----

/// parallel:AE-SZ used to rebuild (reload) its inner codecs once per
/// worker on EVERY request; its warm workers must make repeated requests
/// reuse the instances built by the first one.
TEST(ParallelWarmPool, RepeatedParallelAeszRequestsDoNotReloadModels) {
  svc::Server server;
  const Field f = synth::cesm_cldhgh(64, 96, /*timestep=*/55);
  const auto floats = f.values();
  svc::CompressRequest req;
  req.codec = "parallel:AE-SZ";
  req.eb = ErrorBound::Rel(1e-2);
  req.dims = f.dims();
  req.field = {reinterpret_cast<const std::uint8_t*>(floats.data()),
               floats.size() * sizeof(float)};
  const auto frame = svc::encode_compress_request(req);

  const auto first = server.handle_frame(frame);
  ASSERT_TRUE(svc::parse_compress_response(first).ok());
  const std::uint64_t loads_after_first =
      server.snapshot().get("ae_model_loads");
  EXPECT_GE(loads_after_first, 1u);

  for (int i = 0; i < 3; ++i) {
    const auto again = server.handle_frame(frame);
    ASSERT_TRUE(svc::parse_compress_response(again).ok());
  }
  EXPECT_EQ(server.snapshot().get("ae_model_loads"), loads_after_first)
      << "parallel:AE-SZ reloaded models on a later request";
  EXPECT_EQ(server.snapshot().get("error_responses"), 0u);
}

}  // namespace
}  // namespace aesz
