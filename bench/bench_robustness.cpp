// Robustness-tax benchmark: what the integrity layer costs.
//
// Legs:
//   1. Raw CRC32C throughput, hardware (SSE4.2) vs software (slice-by-8)
//      — the primitive every sealed format and checksummed frame pays.
//   2. Seal share: CRC time as a fraction of a real compress/decompress
//      (the v3 whole-payload seal). GATED: the share must stay under 3%
//      — checksums ride along with codec work, they must never dominate.
//   3. Frame-CRC wire overhead: client<->server round trips through the
//      EventServer over a socketpair with trailers off vs on (non-gating:
//      wall-clock on a shared runner is weather, the recorded trajectory
//      is the signal).
//   4. Retry plumbing: with_retry success-path overhead per call and the
//      deterministic backoff schedule of the default policy.
//
// Human-readable report -> stderr-ish stdout text; JSON rows -> stdout
// tail + AESZ_BENCH_JSON (scripts/CI capture BENCH_robustness.json).
//
// Environment knobs:
//   AESZ_ROBUST_MB      CRC payload MiB            (default 32)
//   AESZ_ROBUST_ROWS    field rows for leg 2/3     (default 192)
//   AESZ_ROBUST_OPS     wire round trips per side  (default 24)
//   AESZ_ROBUST_REPS    timing reps, best-of       (default 3)
//   AESZ_BENCH_JSON     path to also write the JSON array to

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/retry.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace aesz;
namespace svc = ::aesz::service;

std::size_t reps() { return bench::env_size_t("AESZ_ROBUST_REPS", 3); }

template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps(); ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

// ------------------------------------------------------ crc throughput --

void bench_crc(std::vector<bench::JsonObj>& rows) {
  const std::size_t mb = bench::env_size_t("AESZ_ROBUST_MB", 32);
  std::vector<std::uint8_t> buf(mb << 20);
  Rng rng(99);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  const double gib = static_cast<double>(buf.size()) / (1u << 30);

  volatile std::uint32_t sink = 0;
  const double sw = best_seconds([&] { sink = util::crc32c_sw(buf); });
  const double sw_gb = gib / sw;
  std::printf("crc32c  %-10s %8.2f GiB/s\n", "slice-by-8", sw_gb);
  rows.push_back(bench::JsonObj()
                     .add("row", "crc32c")
                     .add("variant", "sw_slice8")
                     .add("gib_s", sw_gb));

  if (util::crc32c_hw_available()) {
    const double hw = best_seconds([&] { sink = util::crc32c_hw(buf); });
    const double hw_gb = gib / hw;
    std::printf("crc32c  %-10s %8.2f GiB/s  (%.1fx over sw)\n", "sse4.2",
                hw_gb, hw_gb / sw_gb);
    rows.push_back(bench::JsonObj()
                       .add("row", "crc32c")
                       .add("variant", "hw_sse42")
                       .add("gib_s", hw_gb)
                       .add("speedup_vs_sw", hw_gb / sw_gb));
  } else {
    std::printf("crc32c  sse4.2 unavailable on this machine\n");
  }
  (void)sink;
}

// ------------------------------------------------------- seal share ----

/// CRC time as a fraction of the codec work it rides along with. Returns
/// the worst share across compress and decompress, for the gate.
double bench_seal_share(std::vector<bench::JsonObj>& rows) {
  const std::size_t r = bench::env_size_t("AESZ_ROBUST_ROWS", 192);
  const Field f = synth::value_noise_2d(r, r * 4 / 3, 4, 6.0, 17, 0.0);
  auto codec = CodecRegistry::instance().create("SZ2.1", 2).value();
  const ErrorBound eb = ErrorBound::Abs(1e-3);

  std::vector<std::uint8_t> stream;
  const double compress_s = best_seconds([&] {
    stream = codec->compress(f, eb);  // includes computing the v3 seal
  });
  Field recon{f.dims()};
  const double decompress_s = best_seconds([&] {
    recon = codec->decompress(stream).value();  // includes verifying it
  });
  // The seal itself: one CRC pass over the sealed region (whole stream is
  // within a fixed header of it — close enough for a share estimate).
  volatile std::uint32_t sink = 0;
  const double crc_s = best_seconds([&] { sink = util::crc32c(stream); });
  (void)sink;

  const double share_c = crc_s / compress_s;
  const double share_d = crc_s / decompress_s;
  std::printf("seal    field %zux%zu -> %zu B stream\n", r, r * 4 / 3,
              stream.size());
  std::printf("seal    compress %8.3f ms   crc %8.4f ms   share %.3f%%\n",
              compress_s * 1e3, crc_s * 1e3, share_c * 100);
  std::printf("seal    decomp   %8.3f ms   crc %8.4f ms   share %.3f%%\n",
              decompress_s * 1e3, crc_s * 1e3, share_d * 100);
  rows.push_back(bench::JsonObj()
                     .add("row", "seal_share")
                     .add("stream_bytes", stream.size())
                     .add("compress_ms", compress_s * 1e3)
                     .add("decompress_ms", decompress_s * 1e3)
                     .add("crc_ms", crc_s * 1e3)
                     .add("compress_share_pct", share_c * 100)
                     .add("decompress_share_pct", share_d * 100));
  return std::max(share_c, share_d);
}

// ------------------------------------------------- frame-crc overhead --

double wire_round_trips(bool with_crc, const Field& f, std::size_t ops) {
  svc::Server server({1, "", ""});
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) std::abort();
  svc::TcpTransport client_end(fds[0]);
  svc::EventServer::Options one_connection;
  one_connection.accept_limit = 1;
  svc::EventServer front(server, one_connection);
  front.adopt(fds[1]);
  std::thread session([&front] { front.run(); });
  svc::Client client(client_end);
  if (with_crc) client.set_frame_crc(true);
  const double s = best_seconds([&] {
    for (std::size_t i = 0; i < ops; ++i) {
      auto c = client.compress("SZ2.1", f, ErrorBound::Abs(1e-3));
      if (!c.ok()) std::abort();
      auto d = client.decompress(c->stream, "SZ2.1");
      if (!d.ok()) std::abort();
    }
  });
  client_end.shutdown();
  session.join();
  return s / static_cast<double>(ops);
}

void bench_frame_crc(std::vector<bench::JsonObj>& rows) {
  const std::size_t r = bench::env_size_t("AESZ_ROBUST_ROWS", 192);
  const std::size_t ops = bench::env_size_t("AESZ_ROBUST_OPS", 24);
  const Field f = synth::value_noise_2d(r / 2, r * 2 / 3, 4, 6.0, 17, 0.0);
  const double off = wire_round_trips(false, f, ops);
  const double on = wire_round_trips(true, f, ops);
  const double overhead = (on - off) / off;
  std::printf("wire    round trip plain   %8.3f ms\n", off * 1e3);
  std::printf("wire    round trip crc'd   %8.3f ms  (%+.2f%%)\n", on * 1e3,
              overhead * 100);
  rows.push_back(bench::JsonObj()
                     .add("row", "frame_crc")
                     .add("plain_ms", off * 1e3)
                     .add("checksummed_ms", on * 1e3)
                     .add("overhead_pct", overhead * 100));
}

// ---------------------------------------------------- retry plumbing ----

void bench_retry(std::vector<bench::JsonObj>& rows) {
  const std::size_t calls = 200'000;
  svc::RetryPolicy policy;
  volatile std::uint64_t sink = 0;
  const double s = best_seconds([&] {
    for (std::size_t i = 0; i < calls; ++i) {
      auto st = svc::with_retry(policy, [&]() -> Status {
        sink = sink + 1;
        return {};
      });
      if (!st.ok()) std::abort();
    }
  });
  (void)sink;
  const double ns = s / static_cast<double>(calls) * 1e9;
  std::printf("retry   success-path wrapper %6.1f ns/call\n", ns);

  std::string schedule;
  for (std::size_t attempt = 1; attempt <= 5; ++attempt) {
    if (!schedule.empty()) schedule += ",";
    schedule += std::to_string(policy.delay_ms(attempt));
  }
  std::printf("retry   default backoff (ms): %s\n", schedule.c_str());
  rows.push_back(bench::JsonObj()
                     .add("row", "retry")
                     .add("success_overhead_ns", ns)
                     .add("default_backoff_ms", schedule));
}

}  // namespace

int main() {
  bench::banner("robustness tax: CRC32C, sealed formats, frame trailers",
                "integrity/fault-tolerance subsystem target (ROADMAP), "
                "not a paper figure");

  std::vector<bench::JsonObj> rows;
  rows.push_back(bench::meta_obj());
  bench_crc(rows);
  const double worst_share = bench_seal_share(rows);
  bench_frame_crc(rows);
  bench_retry(rows);

  // The gate: integrity must ride along, never dominate. 3% of codec
  // time is generous on any machine (measured shares are ~0.1%), so a
  // failure here means a real regression (e.g. the seal recomputing or
  // double-walking payloads), not runner weather.
  const bool pass = worst_share < 0.03;
  rows.push_back(bench::JsonObj()
                     .add("row", "gate")
                     .add("seal_share_limit_pct", 3.0)
                     .add("worst_seal_share_pct", worst_share * 100)
                     .add("pass", pass ? "true" : "false"));
  std::printf("gate    worst seal share %.3f%% %s 3%% -> %s\n",
              worst_share * 100, pass ? "<" : ">=",
              pass ? "PASS" : "FAIL");

  const std::string out = bench::json_array(rows);
  std::printf("%s\n", out.c_str());
  const std::string path = bench::env_str("AESZ_BENCH_JSON", "");
  if (!path.empty()) {
    if (FILE* fp = std::fopen(path.c_str(), "w")) {
      std::fputs(out.c_str(), fp);
      std::fputc('\n', fp);
      std::fclose(fp);
    }
  }
  return pass ? 0 : 1;
}
