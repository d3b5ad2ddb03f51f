// aesz_server — long-lived TCP compression server over the service layer
// (src/service/): an event-driven epoll loop multiplexes every loopback
// connection through one thread while request execution runs on the
// server's worker pool, with cross-request AE-SZ inference batching,
// admission control, and per-connection backpressure (docs/PROTOCOL.md,
// docs/ARCHITECTURE.md).
//
//   aesz_server [--port N] [--threads N] [--model m.bin --field NAME]
//               [--port-file PATH] [--once [N]]
//               [--max-inflight N] [--max-batch N] [--batch-delay-us N]
//               [--max-sessions N] [--session-idle-ms N]
//               [--trace-out FILE] [--slow-ms MS] [--log-level LEVEL]
//
//   --port N           listen port; 0 (default) = kernel-assigned ephemeral
//   --threads N        request worker threads; 0 = hardware concurrency
//   --model/--field    serve a trained AE-SZ model for "AE-SZ" requests
//   --port-file P      write the bound port to P (for scripts racing startup)
//   --once [N]         exit after N connections have come and gone (CI
//                      mode); bare --once means --once 1, the flag's
//                      pre-event-loop spelling
//   --max-inflight N   admission cap before kOverloaded answers (default 64)
//   --max-batch N      AE-SZ requests coalesced per inference (default 8;
//                      1 disables batching)
//   --batch-delay-us N how long a batch waits for company (default 1000)
//   --max-sessions N   stream-session admission cap (default 64)
//   --session-idle-ms N idle reap deadline for abandoned sessions
//                      (default 60000)
//   --trace-out FILE   write per-request Chrome trace-event JSONL to FILE
//                      (load with `jq -s .` -> chrome://tracing)
//   --slow-ms MS       warn-log any request slower than MS milliseconds
//   --log-level LEVEL  trace|debug|info|warn|error|off (also the AESZ_LOG
//                      environment variable; the flag wins)
//
// The bound port is printed (and flushed) before the first accept, so
// `aesz_server --port 0` can be driven by parsing the first stdout line.
//
// SIGTERM/SIGINT drain gracefully: the server stops accepting, finishes
// every in-flight request and owed response, flushes stats/trace output,
// and exits 0 — `kill $(pidof aesz_server)` is a clean shutdown, not an
// abort.

#include <csignal>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "obs/log.hpp"
#include "service/event_loop.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/cli.hpp"

namespace {

// EventServer::stop() is async-signal-safe by design (an atomic store
// plus a write() to the loop's wake pipe), so the handler may call it
// directly. Plain pointer + atomic flag keep the handler trivial.
std::atomic<aesz::service::EventServer*> g_server{nullptr};
std::atomic<int> g_signal{0};

void on_drain_signal(int sig) {
  g_signal.store(sig);
  if (auto* s = g_server.load()) s->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aesz;
  try {
    CliArgs args(argc, argv,
                 {"port", "threads", "model", "field", "port-file",
                  "max-inflight", "max-batch", "batch-delay-us",
                  "max-sessions", "session-idle-ms", "trace-out", "slow-ms",
                  "log-level"},
                 /*known_flags=*/{},
                 /*optional_value_keys=*/{"once"});

    service::Server::Options opt;
    opt.threads = static_cast<std::size_t>(args.get_long("threads", 0));
    opt.aesz_model = args.get("model", "");
    if (args.has("field")) opt.aesz_field = args.get("field", "");
    opt.max_batch = static_cast<std::size_t>(args.get_long("max-batch", 8));
    opt.batch_delay_us =
        static_cast<std::uint64_t>(args.get_long("batch-delay-us", 1000));
    opt.max_sessions =
        static_cast<std::size_t>(args.get_long("max-sessions", 64));
    opt.session_idle_ms =
        static_cast<std::uint64_t>(args.get_long("session-idle-ms", 60000));
    opt.trace_out = args.get("trace-out", "");
    opt.slow_ms = static_cast<double>(args.get_long("slow-ms", 0));
    if (args.has("log-level")) {
      const std::string lvl = args.get("log-level", "info");
      auto parsed = obs::parse_log_level(lvl);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n", parsed.status().str().c_str());
        return 2;
      }
      obs::set_log_level(*parsed);
    }
    service::Server server(opt);

    auto listener = service::TcpListener::bind(
        static_cast<std::uint16_t>(args.get_long("port", 0)));
    if (!listener.ok()) {
      std::fprintf(stderr, "error: %s\n", listener.status().str().c_str());
      return 1;
    }
    std::printf("aesz_server listening on 127.0.0.1:%u\n", (*listener)->port());
    std::fflush(stdout);
    if (args.has("port-file")) {
      std::ofstream pf(args.get("port-file", ""));
      pf << (*listener)->port() << "\n";
    }

    service::EventServer::Options ev;
    ev.max_inflight =
        static_cast<std::size_t>(args.get_long("max-inflight", 64));
    ev.accept_limit = static_cast<std::uint64_t>(args.get_long("once", 0));
    service::EventServer event_server(server, **listener, ev);
    g_server.store(&event_server);
    struct sigaction sa = {};
    sa.sa_handler = on_drain_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    event_server.run();
    g_server.store(nullptr);

    if (const int sig = g_signal.load())
      std::printf("drained on signal %d\n", sig);
    const auto stats = server.snapshot();
    std::printf("served %llu requests (%llu errors), %llu bytes in, "
                "%llu bytes out\n",
                static_cast<unsigned long long>(stats.get("requests")),
                static_cast<unsigned long long>(stats.get("error_responses")),
                static_cast<unsigned long long>(stats.get("bytes_in")),
                static_cast<unsigned long long>(stats.get("bytes_out")));
    return 0;
  } catch (const aesz::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
