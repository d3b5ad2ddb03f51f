#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "predictors/compressor.hpp"
#include "service/protocol.hpp"
#include "temporal/temporal.hpp"
#include "util/thread_pool.hpp"

namespace aesz::service {

/// Long-lived compression server: dispatches protocol frames onto a
/// ThreadPool, routes codec names through the CodecRegistry (including the
/// `parallel:<codec>` wrappers), and keeps every constructed codec warm in
/// a per-(codec, rank) instance cache — for the learned codecs that cache
/// IS the warm-model cache: the AE network is built (or loaded from a
/// trained model file) exactly once and reused by every later request,
/// observable through the `ae_model_loads` stats counter. `parallel:AE-SZ`
/// shares that warmth too: its pipeline workers draw inner instances from
/// a pooled factory, so repeated parallel requests reuse the same loaded
/// models instead of rebuilding one per worker per request.
///
/// Request scheduling: submit() is the async entry point. Most requests go
/// straight to the ThreadPool; AE-SZ compress requests are routed through
/// the batching scheduler, which coalesces up to Options::max_batch queued
/// requests for the same (codec, rank) into ONE AESZ::compress_batch()
/// call so their per-block network inference shares forward passes.
/// Because batched streams are byte-identical to solo streams (see
/// BatchCompressor), coalescing is invisible to clients except as
/// throughput. The EventServer front end (event_loop.hpp) pipelines
/// submit() per connection: it keeps reading frames while earlier requests
/// execute and writes responses back strictly in request order. Codec
/// instances are not required to be
/// thread-safe, so requests hitting the SAME cached instance serialize on
/// a per-instance mutex; different codecs (or ranks) run in parallel.
///
/// Failure discipline: handle_frame() never throws and always produces a
/// response frame — every malformed or unserviceable request becomes a
/// typed error frame (protocol::ErrorResponse), mirroring the
/// Expected-based codec API. The batched path keeps the same per-request
/// counter and error semantics as the solo path.
class Server {
 public:
  struct Options {
    /// Worker threads for request execution; 0 = hardware concurrency.
    std::size_t threads = 0;
    /// Optional trained AE-SZ model served for "AE-SZ" requests: path to a
    /// save_model() file plus the model-zoo field name that configured it.
    /// Empty = registry default (fixed-seed untrained network).
    std::string aesz_model;
    std::string aesz_field = "CESM-CLDHGH";
    /// Cross-request inference batching: up to max_batch queued AE-SZ
    /// compress requests for the same (codec, rank) coalesce into one
    /// compress_batch() call. 1 disables coalescing entirely.
    std::size_t max_batch = 8;
    /// How long the batcher holds the first request of a group open
    /// waiting for companions, in microseconds. 0 = coalesce only what is
    /// already queued (no added latency).
    std::uint64_t batch_delay_us = 1000;
    /// Stream sessions idle longer than this (no op addressed them) are
    /// reaped: their state is freed and their id answers kNoSession from
    /// then on. Reaping runs opportunistically on session/stats requests
    /// (no dedicated timer thread); reap_idle_sessions() forces a pass.
    std::uint64_t session_idle_ms = 60000;
    /// Admission cap on concurrently open stream sessions; open-stream
    /// beyond it answers kOverloaded.
    std::size_t max_sessions = 64;
    /// Per-request Chrome trace-event JSONL output path (aesz_server
    /// --trace-out). Empty = tracing off; a path that cannot be opened
    /// fails construction with a typed Error(kIoError). The explicit
    /// initializer keeps partial aggregate init ({threads, model, field})
    /// warning-free at existing call sites.
    std::string trace_out = {};
    /// Requests whose admission-to-completion wall time exceeds this many
    /// milliseconds get a warn-level log line with their per-stage
    /// breakdown (aesz_server --slow-ms). 0 = off.
    double slow_ms = 0;
  };

  // Two overloads, not a `= {}` default argument: NSDMIs of a nested
  // class are only parsed once the enclosing class is complete, so GCC
  // rejects brace-init of Options in a default argument here.
  Server();
  explicit Server(Options opt);
  ~Server();

  /// Handle one request frame and return the response frame. Thread-safe;
  /// this is the transport-free core the deterministic tests drive.
  /// Synchronous — never routed through the batcher.
  std::vector<std::uint8_t> handle_frame(std::span<const std::uint8_t> frame);

  /// Response sink for submit(). Invoked exactly once per submitted frame,
  /// from a worker or batcher thread; must not throw.
  using DoneFn = std::function<void(std::vector<std::uint8_t>)>;

  /// Async entry point: classify `frame` and either hand it to the
  /// ThreadPool or enqueue it with the batching scheduler. `done` receives
  /// the response frame. Thread-safe; callers needing ordered responses
  /// sequence completions themselves (EventServer does). `conn_id` is the
  /// submitting front end's connection id, carried into the request's
  /// trace and slow-request log line (0 = no connection identity).
  void submit(std::vector<std::uint8_t> frame, DoneFn done,
              std::uint64_t conn_id = 0);

  /// Snapshot of every registered metric (the same data a stats frame
  /// reports): counters and gauges as named rows, histograms as
  /// `<name>_count/_sum/_p50/_p90/_p99` summary rows.
  StatsResponse snapshot() const;

  /// The registry every layer's instruments live in. The EventServer
  /// front end creates its ev_* counters/gauges here, so one stats or
  /// metrics frame covers Server, sessions, and event loop alike.
  /// References obtained from it stay valid for the Server's lifetime.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Force one idle-session reap pass (normally run opportunistically on
  /// session and stats requests); returns how many sessions it freed.
  std::size_t reap_idle_sessions();

 private:
  /// One cache slot per canonical (codec, rank). `mu` serializes both the
  /// first construction and every later use of the instance (codecs keep
  /// per-compression state); the global cache_mu_ only ever guards the
  /// map itself, so an expensive model load never stalls requests for
  /// other codecs.
  struct CacheEntry {
    std::mutex mu;
    std::shared_ptr<Compressor> codec;  // null until the first build
  };

  /// Handler-facing view of a cache entry: the instance plus the mutex to
  /// hold while using it (aliased into the owning CacheEntry).
  struct CachedCodec {
    std::shared_ptr<Compressor> codec;
    std::shared_ptr<std::mutex> mu;
  };

  /// A compress request parked with the batching scheduler. `key` is the
  /// canonical "codec#rank" the group is formed on; `id`/`admit_ns` are
  /// the request's trace identity, stamped at admission so the coalesce
  /// wait is observable per request.
  struct BatchJob {
    std::vector<std::uint8_t> frame;
    std::string key;
    DoneFn done;
    std::uint64_t id = 0;
    std::uint64_t admit_ns = 0;
    std::uint64_t conn_id = 0;
  };

  /// One open stream session: a TemporalWriter plus the serialization
  /// state that keeps pipelined session ops in arrival order. `mu` guards
  /// every member; ops on DIFFERENT sessions run concurrently. Tickets:
  /// submit() assigns `next_ticket++` at frame arrival, the pool task
  /// waits until `done_ticket` reaches its ticket, runs, and increments
  /// it — so responses reflect append order even when the pool executes
  /// out of order. Deadlock-free because the pool is FIFO: a session's
  /// lowest unfinished ticket was submitted (hence dequeued) before any
  /// task that could be waiting on it.
  struct StreamSession {
    std::uint64_t id = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t next_ticket = 0;
    std::uint64_t done_ticket = 0;
    std::unique_ptr<temporal::TemporalWriter> writer;
    std::chrono::steady_clock::time_point last_used;
    bool closed = false;
  };

  Expected<CachedCodec> codec_for(const std::string& name, int rank);
  Expected<std::unique_ptr<Compressor>> build_codec(const std::string& base,
                                                    bool parallel, int rank);
  std::vector<std::uint8_t> dispatch(Op op,
                                     std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_compress(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_decompress(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_list_codecs();
  std::vector<std::uint8_t> handle_stats();
  std::vector<std::uint8_t> handle_open_stream(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_append_timestep(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_read_timestep(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_close_stream(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_read_partial(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_deadline(
      std::span<const std::uint8_t> frame);
  std::vector<std::uint8_t> handle_metrics();
  std::shared_ptr<StreamSession> find_session(std::uint64_t id);
  std::vector<std::uint8_t> error_frame(ErrCode code, std::string message);

  void batcher_main();
  void run_batch(std::vector<BatchJob>& jobs);

  /// Observe a finished request into the latency/size histograms, write
  /// its trace events, and emit the slow-request log line.
  /// `count_request` is false for the synthetic batch-group trace, whose
  /// member requests were already counted individually.
  void finish_trace(const obs::RequestTrace& t, bool count_request = true);
  /// Recompute the point-in-time gauges (queue depths, active sessions)
  /// before a snapshot or exposition leaves the server.
  void refresh_gauges() const;

  Options opt_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::TraceWriter> tracer_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex cache_mu_;
  std::map<std::string, std::shared_ptr<CacheEntry>> cache_;

  mutable std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::deque<BatchJob> batch_queue_;
  bool batch_stop_ = false;
  std::thread batcher_;

  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<StreamSession>> sessions_;
  std::atomic<std::uint64_t> next_session_id_{1};

  /// Server-layer instruments, all living in metrics_ (registered in this
  /// declaration order, which fixes the stats-frame row order). The
  /// members are references so every existing call site stays a single
  /// relaxed atomic op.
  struct Counters {
    explicit Counters(obs::MetricsRegistry& m);
    obs::Counter& requests;
    obs::Counter& compress_requests;
    obs::Counter& decompress_requests;
    obs::Counter& list_codecs_requests;
    obs::Counter& stats_requests;
    obs::Counter& metrics_requests;
    obs::Counter& error_responses;
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
    obs::Counter& codec_cache_hits;
    obs::Counter& codec_cache_misses;
    obs::Counter& ae_model_loads;
    // Batching scheduler: how many requests rode through it and how many
    // compress_batch group executions ran (group sizes: hists_.batch_size).
    obs::Counter& batched_requests;
    obs::Counter& batch_executions;
    // Stream sessions: per-op request counts plus lifecycle totals.
    obs::Counter& open_stream_requests;
    obs::Counter& append_timestep_requests;
    obs::Counter& read_timestep_requests;
    obs::Counter& close_stream_requests;
    obs::Counter& sessions_opened;
    obs::Counter& sessions_closed;
    obs::Counter& sessions_reaped;
    obs::Counter& session_timesteps_stored;
    // Progressive retrieval: byte-budgeted / bound-targeted prefix reads.
    obs::Counter& read_partial_requests;
    // Deadline envelopes: wrapped requests seen, and the ones answered
    // kTimeout because their budget expired while queued.
    obs::Counter& deadline_requests;
    obs::Counter& timeout_responses;
  };
  Counters counters_;

  /// Point-in-time levels, recomputed by refresh_gauges() before export.
  struct Gauges {
    explicit Gauges(obs::MetricsRegistry& m);
    obs::Gauge& batch_queue_depth;
    obs::Gauge& pool_queue_depth;
    obs::Gauge& sessions_active;
  };
  Gauges gauges_;

  /// Latency/size distributions, fed per request by finish_trace().
  struct Histograms {
    explicit Histograms(obs::MetricsRegistry& m);
    obs::Histogram& request_ns_compress;
    obs::Histogram& request_ns_decompress;
    obs::Histogram& request_ns_session;
    obs::Histogram& request_ns_admin;
    obs::Histogram& request_ns_other;
    obs::Histogram& queue_wait_ns;
    obs::Histogram& batch_wait_ns;
    obs::Histogram& batch_size;  // requests per compress_batch group
    obs::Histogram& predict_ns;
    obs::Histogram& quantize_ns;
    obs::Histogram& entropy_ns;
    obs::Histogram& inference_ns;
    obs::Histogram& request_bytes_in;
    obs::Histogram& response_bytes_out;
    // Fidelity actually served by read-partial: prefix bytes shipped and
    // refinement layers included — together they chart bytes-per-fidelity.
    obs::Histogram& progressive_bytes_served;
    obs::Histogram& progressive_layers_served;
    // Budget left (ms) when an enveloped request started executing; the
    // left tail approaching zero is the early warning before timeouts.
    obs::Histogram& deadline_slack_ms;
  };
  Histograms hists_;
};

}  // namespace aesz::service
