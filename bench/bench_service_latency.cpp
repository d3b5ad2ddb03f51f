// bench_service_latency — request latency and throughput of the service
// layer (src/service/) through the EventServer front end that aesz_server
// runs: a server with a warm codec cache, one synchronous client issuing
// compress+decompress round trips. Reports p50/p99 per-request latency and
// requests/s, per codec, as JSON rows (bench::JsonObj).
//
// The first two legs connect over an AF_UNIX socketpair the EventServer
// adopts, which keeps the measurement about the service stack itself
// (framing, event loop, dispatch, scheduling, codec work) rather than the
// TCP stack; on this repo's 1-core CI container absolute numbers are
// modest — the value is tracking them across PRs.
//
// Three legs:
//   roundtrip  — synchronous compress+decompress per codec (as before)
//   batching   — pipelined AE-SZ requests (depth 8) against a server with
//                cross-request inference batching ON (max_batch 8) vs OFF
//                (max_batch 1), both on a single worker thread; the req/s
//                ratio is the coalescing win (must be > 1 at batch >= 4)
//   tcp_event  — concurrent TCP connections through the event-loop server
//
// Env knobs:
//   AESZ_SERVICE_REQS    round trips per codec      (default 40)
//   AESZ_SERVICE_CODECS  comma list of codec names  (default SZ2.1,ZFP)
//   AESZ_SERVICE_ROWS    field rows (cols = 2*rows) (default 192)
//   AESZ_SERVICE_EB      bound spec, MODE:VALUE     (default rel:1e-2)
//   AESZ_SERVICE_ROUNDS  pipelined batching rounds  (default 24)
//   AESZ_SERVICE_CONNS   concurrent TCP clients     (default 4)
//   AESZ_BENCH_JSON      path to also write the JSON array to

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "data/synth.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/timer.hpp"

namespace {

using namespace aesz;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// One connection served by an EventServer on its own thread: the server
/// adopts one end of a socketpair, the bench talks through `client`.
/// close() (or the destructor) shuts the client end down and waits until
/// the server has answered everything and closed its end.
struct Session {
  explicit Session(service::Server& server)
      : front(server, one_connection()) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      std::perror("socketpair");
      std::exit(1);
    }
    client = std::make_unique<service::TcpTransport>(fds[0]);
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
  static service::EventServer::Options one_connection() {
    service::EventServer::Options opt;
    opt.accept_limit = 1;
    return opt;
  }

  service::EventServer front;
  std::unique_ptr<service::TcpTransport> client;
  std::thread loop;
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main() {
  const std::size_t reqs = bench::env_size_t("AESZ_SERVICE_REQS", 40);
  const std::size_t rows = bench::env_size_t("AESZ_SERVICE_ROWS", 192);
  const auto codecs =
      split_csv(bench::env_str("AESZ_SERVICE_CODECS", "SZ2.1,ZFP"));
  const ErrorBound eb =
      ErrorBound::parse(bench::env_str("AESZ_SERVICE_EB", "rel:1e-2"))
          .value();

  bench::banner("service request latency (event server, warm cache)",
                "service-layer scaling target (ROADMAP north star), not a "
                "paper figure");

  const Field f = synth::cesm_cldhgh(rows, 2 * rows, 55);
  std::printf("field %s (%.1f MiB), %zu round trips per codec, bound %s\n",
              f.dims().str().c_str(),
              static_cast<double>(f.size() * sizeof(float)) / (1024 * 1024),
              reqs, eb.str().c_str());

  service::Server server;
  Session session(server);
  service::Client client(*session.client);

  std::vector<bench::JsonObj> json_rows;
  json_rows.push_back(bench::meta_obj());
  for (const auto& codec : codecs) {
    // Warm the server's codec cache so the measured requests see the
    // steady state a long-lived service runs in.
    auto warm = client.compress(codec, f, eb);
    if (!warm.ok()) {
      std::printf("!! %s: %s — skipped\n", codec.c_str(),
                  warm.status().str().c_str());
      continue;
    }
    std::vector<double> compress_ms, decompress_ms;
    compress_ms.reserve(reqs);
    decompress_ms.reserve(reqs);
    Timer wall;
    for (std::size_t i = 0; i < reqs; ++i) {
      Timer t;
      auto compressed = client.compress(codec, f, eb);
      if (!compressed.ok()) {
        std::printf("!! %s compress: %s\n", codec.c_str(),
                    compressed.status().str().c_str());
        return 1;
      }
      compress_ms.push_back(t.seconds() * 1e3);
      t.reset();
      auto recon = client.decompress(compressed->stream, codec);
      if (!recon.ok()) {
        std::printf("!! %s decompress: %s\n", codec.c_str(),
                    recon.status().str().c_str());
        return 1;
      }
      decompress_ms.push_back(t.seconds() * 1e3);
    }
    const double wall_s = wall.seconds();
    std::sort(compress_ms.begin(), compress_ms.end());
    std::sort(decompress_ms.begin(), decompress_ms.end());
    const double req_per_s =
        wall_s > 0 ? static_cast<double>(2 * reqs) / wall_s : 0.0;

    std::printf("%-12s compress p50 %8.2f ms  p99 %8.2f ms | "
                "decompress p50 %8.2f ms  p99 %8.2f ms | %7.1f req/s\n",
                codec.c_str(), percentile(compress_ms, 0.50),
                percentile(compress_ms, 0.99),
                percentile(decompress_ms, 0.50),
                percentile(decompress_ms, 0.99), req_per_s);

    bench::JsonObj row;
    row.add("codec", codec)
        .add("requests", 2 * reqs)
        .add("field", f.dims().str())
        .add("eb", eb.str())
        .add("compress_p50_ms", percentile(compress_ms, 0.50))
        .add("compress_p99_ms", percentile(compress_ms, 0.99))
        .add("decompress_p50_ms", percentile(decompress_ms, 0.50))
        .add("decompress_p99_ms", percentile(decompress_ms, 0.99))
        .add("req_per_s", req_per_s);
    json_rows.push_back(row);
  }

  session.close();

  // ---- leg 1.5: client-vs-server latency cross-check -------------------
  // The server's own request_ns_compress/_decompress histograms (stats
  // rows `<hist>_p50/_p99`) must tell the same story the client's
  // stopwatch does. Server-side quantiles are execution-only (no
  // transport, no framing) and bucket-quantized (~25% per bucket), so the
  // p50 ratio is gated within two bucket widths; p99 is recorded but not
  // gated — the warmup request (which pays the codec build) lands in the
  // server histogram and legitimately dominates its tail.
  {
    service::Server xserver;
    Session xsession(xserver);
    service::Client xclient(*xsession.client);
    auto warm = xclient.compress("SZ2.1", f, eb);
    if (!warm.ok()) {
      std::printf("!! xcheck warmup: %s\n", warm.status().str().c_str());
      return 1;
    }
    std::vector<double> cms, dms;
    for (std::size_t i = 0; i < reqs; ++i) {
      Timer t;
      auto compressed = xclient.compress("SZ2.1", f, eb);
      if (!compressed.ok()) {
        std::printf("!! xcheck compress: %s\n",
                    compressed.status().str().c_str());
        return 1;
      }
      cms.push_back(t.seconds() * 1e3);
      t.reset();
      auto recon = xclient.decompress(compressed->stream, "SZ2.1");
      if (!recon.ok()) {
        std::printf("!! xcheck decompress: %s\n",
                    recon.status().str().c_str());
        return 1;
      }
      dms.push_back(t.seconds() * 1e3);
    }
    xsession.close();
    std::sort(cms.begin(), cms.end());
    std::sort(dms.begin(), dms.end());

    const auto snap = xserver.snapshot();
    bench::JsonObj row;
    row.add("leg", "latency_xcheck").add("codec", "SZ2.1");
    bool ok = true;
    const auto xcheck = [&](const char* what, const char* hist,
                            const std::vector<double>& client_ms) {
      const double client_p50 = percentile(client_ms, 0.50);
      const double server_p50 =
          static_cast<double>(snap.get(std::string(hist) + "_p50")) / 1e6;
      const double server_p99 =
          static_cast<double>(snap.get(std::string(hist) + "_p99")) / 1e6;
      const double ratio = client_p50 > 0 ? server_p50 / client_p50 : 0.0;
      std::printf("  %-10s client p50 %8.2f ms | server p50 %8.2f ms "
                  "(ratio %.3f)  p99 %8.2f ms\n",
                  what, client_p50, server_p50, ratio, server_p99);
      row.add(std::string(what) + "_client_p50_ms", client_p50)
          .add(std::string(what) + "_server_p50_ms", server_p50)
          .add(std::string(what) + "_server_p99_ms", server_p99)
          .add(std::string(what) + "_p50_ratio", ratio);
      // Two histogram buckets of slack (1.25^2) on top: server exec must
      // not exceed client wall by more than quantization, and client wall
      // must not dwarf server exec (transport is cheap on a socketpair).
      if (ratio > 1.5625 || ratio < 0.4) {
        std::printf("!! %s: server/client p50 ratio %.3f outside "
                    "[0.4, 1.5625]\n", what, ratio);
        ok = false;
      }
    };
    std::printf("\nclient-vs-server latency cross-check (SZ2.1, %zu "
                "round trips):\n", reqs);
    xcheck("compress", "request_ns_compress", cms);
    xcheck("decompress", "request_ns_decompress", dms);
    json_rows.push_back(row);
    if (!ok) return 1;
  }

  // ---- leg 2: cross-request AE-SZ inference batching, on vs off --------
  // Depth-8 pipelined compress requests for small fields; a single worker
  // thread serves both configurations so the only difference is whether
  // compatible queued requests are coalesced into one batched inference.
  {
    const std::size_t rounds = bench::env_size_t("AESZ_SERVICE_ROUNDS", 24);
    constexpr std::size_t kDepth = 8;
    // One 32x32 block per field: the many-small-requests shape that
    // cross-request batching exists for — per-request fixed costs (weight
    // fingerprint, forward-pass setup) dominate a single block's compute.
    std::vector<Field> small_fields;
    std::vector<const Field*> ptrs;
    for (std::size_t i = 0; i < kDepth; ++i)
      small_fields.push_back(
          synth::cesm_cldhgh(32, 32, static_cast<int>(30 + i)));
    for (const Field& sf : small_fields) ptrs.push_back(&sf);

    std::printf("\npipelined AE-SZ compress, depth %zu, %zu rounds, "
                "1 worker thread:\n", kDepth, rounds);
    double seq_rps = 0.0;
    for (const std::size_t max_batch :
         {std::size_t{1}, std::size_t{4}, kDepth}) {
      service::Server::Options so;
      so.threads = 1;
      so.max_batch = max_batch;
      so.batch_delay_us = 2000;
      service::Server batch_server(so);
      Session bsession(batch_server);
      service::Client bclient(*bsession.client);

      // Warm the model cache; the steady state is what a service runs in.
      for (auto& r : bclient.compress_many("AE-SZ", ptrs, eb))
        if (!r.ok()) {
          std::printf("!! AE-SZ warmup: %s\n", r.status().str().c_str());
          return 1;
        }
      Timer wall;
      for (std::size_t round = 0; round < rounds; ++round)
        for (auto& r : bclient.compress_many("AE-SZ", ptrs, eb))
          if (!r.ok()) {
            std::printf("!! AE-SZ: %s\n", r.status().str().c_str());
            return 1;
          }
      const double wall_s = wall.seconds();
      const double rps =
          wall_s > 0 ? static_cast<double>(rounds * kDepth) / wall_s : 0.0;
      bsession.close();

      const auto snap = batch_server.snapshot();
      const bool batching = max_batch > 1;
      if (!batching) seq_rps = rps;
      char label[32];
      std::snprintf(label, sizeof(label),
                    batching ? "batched (max_batch %zu)" : "sequential",
                    max_batch);
      std::printf("  %-22s %7.1f req/s  (%llu batch executions)",
                  label, rps,
                  static_cast<unsigned long long>(
                      snap.get("batch_executions")));
      if (batching && seq_rps > 0)
        std::printf("  speedup %.2fx", rps / seq_rps);
      std::printf("\n");

      bench::JsonObj row;
      row.add("leg", "batching")
          .add("codec", "AE-SZ")
          .add("max_batch", max_batch)
          .add("pipeline_depth", kDepth)
          .add("requests", rounds * kDepth)
          .add("req_per_s", rps)
          .add("batch_executions", snap.get("batch_executions"));
      if (batching && seq_rps > 0) row.add("speedup_vs_sequential",
                                           rps / seq_rps);
      json_rows.push_back(row);
    }
  }

  // ---- leg 3: concurrent TCP connections through the event loop -------
  {
    const std::size_t conns = bench::env_size_t("AESZ_SERVICE_CONNS", 4);
    const std::size_t per_conn = std::max<std::size_t>(reqs / 4, 8);
    service::Server tcp_server;
    auto listener = service::TcpListener::bind(0);
    if (!listener.ok()) {
      std::printf("!! bind: %s\n", listener.status().str().c_str());
      return 1;
    }
    service::EventServer events(tcp_server, **listener, {});
    std::thread loop([&events] { events.run(); });

    const Field small = synth::cesm_cldhgh(96, 192, 55);
    std::atomic<bool> failed{false};
    Timer wall;
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < conns; ++c)
      workers.emplace_back([&, c] {
        auto t = service::TcpTransport::connect("127.0.0.1",
                                                (*listener)->port());
        if (!t.ok()) { failed = true; return; }
        service::Client cl(**t);
        for (std::size_t i = 0; i < per_conn; ++i)
          if (!cl.compress("SZ2.1", small, eb).ok()) { failed = true;
            return; }
      });
    for (auto& w : workers) w.join();
    const double wall_s = wall.seconds();
    events.stop();
    loop.join();
    if (failed) {
      std::printf("!! tcp_event leg failed\n");
      return 1;
    }
    const double rps = wall_s > 0
        ? static_cast<double>(conns * per_conn) / wall_s : 0.0;
    std::printf("\ntcp event loop: %zu connections x %zu requests — "
                "%7.1f req/s aggregate\n", conns, per_conn, rps);
    bench::JsonObj row;
    row.add("leg", "tcp_event")
        .add("codec", "SZ2.1")
        .add("connections", conns)
        .add("requests", conns * per_conn)
        .add("req_per_s", rps);
    json_rows.push_back(row);
  }

  const std::string json = bench::json_array(json_rows);
  std::printf("%s\n", json.c_str());
  const std::string json_path = bench::env_str("AESZ_BENCH_JSON", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}
