#include "service/server.hpp"

#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "core/aesz.hpp"
#include "core/model_zoo.hpp"
#include "obs/log.hpp"
#include "format/container.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "sz/common.hpp"
#include "util/bytestream.hpp"

namespace aesz::service {

namespace {

/// A codec name in its one canonical spelling: lowercased, an optional
/// `parallel:` prefix split off, and the AE-SZ aliases folded onto
/// "ae-sz" — so every spelling of one codec ("AE-SZ", "AESZ",
/// "parallel:aesz", ...) lands on ONE cache slot and one batch group, and
/// mixed spellings never double-load a model.
struct CodecName {
  std::string base;
  bool parallel = false;

  /// Cache and batch-group key of this codec at `rank`.
  std::string key(int rank) const {
    return (parallel ? "parallel:" : "") + base + "#" + std::to_string(rank);
  }
};

CodecName canonical(const std::string& name) {
  constexpr std::string_view kParallel = "parallel:";
  CodecName c;
  for (const char ch : name)
    c.base += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  c.parallel = c.base.starts_with(kParallel);
  if (c.parallel) c.base.erase(0, kParallel.size());
  if (c.base == "aesz") c.base = "ae-sz";
  return c;
}

/// The one exception -> Status fold of request handling; call it inside a
/// catch block. An untyped internal throw (kOk) is attributed to the
/// request as kInternal, and a non-Error exception (a missing model file,
/// or bad_alloc/length_error from hostile sizes) becomes kInternal too: a
/// request must never take the server down.
Status caught_status() {
  try {
    throw;
  } catch (const Error& e) {
    return Status::error(
        e.code() == ErrCode::kOk ? ErrCode::kInternal : e.code(), e.what());
  } catch (const std::exception& e) {
    return Status::error(ErrCode::kInternal, e.what());
  }
}

/// Rank declared by a compressed stream's own header — so a cached
/// decompress codec is built at the rank the stream needs, not a guess:
/// the container preamble for AEPC/AETC/AEPR streams, the shared codec
/// header otherwise, 2 when neither parses (the decode then reports why).
int stream_rank(std::span<const std::uint8_t> stream) {
  if (const auto pre = format::peek(stream); pre.ok()) return pre->dims.rank;
  ByteReader r(stream);
  std::uint32_t magic = 0;
  if (!r.try_get(magic)) return 2;
  ByteReader hr(stream);
  const auto header = sz::read_header(hr, magic);
  return header.ok() ? header->dims.rank : 2;
}

}  // namespace

Server::Counters::Counters(obs::MetricsRegistry& m)
    : requests(m.counter("requests", "frames handled (any opcode)")),
      compress_requests(m.counter("compress_requests", "compress frames")),
      decompress_requests(
          m.counter("decompress_requests", "decompress frames")),
      list_codecs_requests(
          m.counter("list_codecs_requests", "list-codecs frames")),
      stats_requests(m.counter("stats_requests", "stats frames")),
      metrics_requests(m.counter("metrics_requests", "metrics frames")),
      error_responses(m.counter("error_responses", "typed error answers")),
      bytes_in(m.counter("bytes_in", "request frame bytes received")),
      bytes_out(m.counter("bytes_out", "response frame bytes produced")),
      codec_cache_hits(
          m.counter("codec_cache_hits", "codec cache lookups that hit")),
      codec_cache_misses(
          m.counter("codec_cache_misses", "codec cache lookups that missed")),
      ae_model_loads(
          m.counter("ae_model_loads", "AE-SZ model constructions/loads")),
      batched_requests(m.counter(
          "batched_requests", "requests routed through the batch scheduler")),
      batch_executions(
          m.counter("batch_executions", "compress_batch group executions")),
      open_stream_requests(
          m.counter("open_stream_requests", "open-stream frames")),
      append_timestep_requests(
          m.counter("append_timestep_requests", "append-timestep frames")),
      read_timestep_requests(
          m.counter("read_timestep_requests", "read-timestep frames")),
      close_stream_requests(
          m.counter("close_stream_requests", "close-stream frames")),
      sessions_opened(m.counter("sessions_opened", "stream sessions opened")),
      sessions_closed(
          m.counter("sessions_closed", "stream sessions closed by clients")),
      sessions_reaped(
          m.counter("sessions_reaped", "stream sessions reaped while idle")),
      session_timesteps_stored(m.counter("session_timesteps_stored",
                                         "timesteps appended to sessions")),
      read_partial_requests(
          m.counter("read_partial_requests", "read-partial frames")),
      deadline_requests(
          m.counter("deadline_requests", "deadline-enveloped frames")),
      timeout_responses(m.counter(
          "timeout_responses", "requests answered kTimeout (budget "
                               "expired while queued)")) {}

Server::Gauges::Gauges(obs::MetricsRegistry& m)
    : batch_queue_depth(
          m.gauge("batch_queue_depth", "requests parked with the batcher")),
      pool_queue_depth(
          m.gauge("pool_queue_depth", "tasks queued for the worker pool")),
      sessions_active(
          m.gauge("sessions_active", "stream sessions currently open")) {}

Server::Histograms::Histograms(obs::MetricsRegistry& m)
    : request_ns_compress(m.histogram(
          "request_ns_compress", "compress execution nanoseconds")),
      request_ns_decompress(m.histogram(
          "request_ns_decompress", "decompress execution nanoseconds")),
      request_ns_session(m.histogram(
          "request_ns_session", "stream-session op execution nanoseconds")),
      request_ns_admin(m.histogram(
          "request_ns_admin",
          "list-codecs/stats/metrics execution nanoseconds")),
      request_ns_other(m.histogram(
          "request_ns_other", "unknown/invalid frame handling nanoseconds")),
      queue_wait_ns(m.histogram(
          "queue_wait_ns", "admission-to-execution wait nanoseconds")),
      batch_wait_ns(m.histogram(
          "batch_wait_ns", "wait parked with the batch scheduler")),
      batch_size(m.histogram("batch_size",
                             "requests per compress_batch group execution")),
      predict_ns(m.histogram("predict_ns",
                             "per-request prediction-stage nanoseconds")),
      quantize_ns(m.histogram("quantize_ns",
                              "per-request quantization-stage nanoseconds")),
      entropy_ns(m.histogram("entropy_ns",
                             "per-request entropy-stage nanoseconds")),
      inference_ns(m.histogram(
          "inference_ns", "per-request network-inference nanoseconds")),
      request_bytes_in(
          m.histogram("request_bytes_in", "request frame size bytes")),
      response_bytes_out(
          m.histogram("response_bytes_out", "response frame size bytes")),
      progressive_bytes_served(m.histogram(
          "progressive_bytes_served",
          "AEPR prefix bytes shipped per read-partial answer")),
      progressive_layers_served(m.histogram(
          "progressive_layers_served",
          "refinement layers included per read-partial answer")),
      deadline_slack_ms(m.histogram(
          "deadline_slack_ms",
          "budget left when an enveloped request started executing")) {}

Server::Server() : Server(Options{}) {}

Server::Server(Options opt)
    : opt_(std::move(opt)),
      pool_(std::make_unique<ThreadPool>(opt_.threads)),
      counters_(metrics_),
      gauges_(metrics_),
      hists_(metrics_) {
  if (!opt_.trace_out.empty()) {
    auto w = obs::TraceWriter::open(opt_.trace_out);
    if (!w.ok()) throw Error(w.status().code, w.status().message);
    tracer_ = std::move(*w);
    AESZ_LOG_INFO("server", "tracing requests to %s", opt_.trace_out.c_str());
  }
  batcher_ = std::thread([this] { batcher_main(); });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    batch_stop_ = true;
  }
  batch_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  // The batcher drains its queue before exiting, so anything left here
  // means submit() raced teardown; still answer it — done callbacks fire
  // exactly once per submitted frame.
  std::deque<BatchJob> rest;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    rest.swap(batch_queue_);
  }
  for (auto& job : rest) {
    std::vector<BatchJob> one;
    one.push_back(std::move(job));
    run_batch(one);
  }
}

Expected<std::unique_ptr<Compressor>> Server::build_codec(
    const std::string& base, bool parallel, int rank) {
  try {
    if (base != "ae-sz")
      return CodecRegistry::instance().create(
          (parallel ? "parallel:" : "") + base, rank);
    // Every AE-SZ instance — served directly or a parallel:AE-SZ worker —
    // comes through this maker, so ae_model_loads counts true model
    // constructions wherever they happen.
    auto make_aesz = [this](int r) -> std::unique_ptr<Compressor> {
      std::unique_ptr<Compressor> c;
      if (!opt_.aesz_model.empty()) {
        // Warm trained-model path: instances come from the server's
        // model file instead of the registry's fixed-seed default.
        auto a = std::make_unique<AESZ>(
            model_zoo::options_for(opt_.aesz_field), /*seed=*/1);
        a->load_model(opt_.aesz_model);
        c = std::move(a);
      } else {
        auto created = CodecRegistry::instance().create("ae-sz", r);
        if (!created.ok())
          throw Error(created.status().code, created.status().message);
        c = std::move(created).value();
      }
      counters_.ae_model_loads.inc();
      return c;
    };
    if (!parallel) return make_aesz(rank);
    // The wrapper keeps its workers warm, so the cached parallel:AE-SZ
    // loads each worker's model once, not once per request.
    return std::unique_ptr<Compressor>(
        std::make_unique<pipeline::ParallelCompressor>(
            pipeline::ParallelCompressor::Options{base, 0, 0}, rank,
            make_aesz));
  } catch (const std::exception&) {
    return caught_status();
  }
}

Expected<Server::CachedCodec> Server::codec_for(const std::string& name,
                                                int rank) {
  const CodecName c = canonical(name);
  const std::string key = c.key(rank);

  std::shared_ptr<CacheEntry> entry;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (auto it = cache_.find(key); it != cache_.end()) {
      counters_.codec_cache_hits.inc();
      entry = it->second;
    } else {
      counters_.codec_cache_misses.inc();
      entry = std::make_shared<CacheEntry>();
      cache_.emplace(key, entry);
    }
  }

  // Construction runs under the ENTRY lock, not the cache lock: the
  // build-exactly-once guarantee (what `ae_model_loads` certifies) holds
  // per codec, while requests for other codecs hit the cache in parallel
  // even during a seconds-long model load.
  std::unique_lock<std::mutex> entry_lock(entry->mu);
  if (!entry->codec) {
    auto built = build_codec(c.base, c.parallel, rank);
    if (!built.ok()) {
      entry_lock.unlock();
      // Drop the empty slot so hostile unknown codec names cannot grow
      // the cache without bound.
      std::lock_guard<std::mutex> lock(cache_mu_);
      if (auto it = cache_.find(key);
          it != cache_.end() && it->second == entry)
        cache_.erase(it);
      return built.status();
    }
    entry->codec = std::move(built).value();
  }
  return CachedCodec{entry->codec,
                     std::shared_ptr<std::mutex>(entry, &entry->mu)};
}

std::vector<std::uint8_t> Server::error_frame(ErrCode code,
                                              std::string message) {
  counters_.error_responses.inc();
  if (auto* t = obs::current_trace()) t->error = true;
  if (code == ErrCode::kOk) code = ErrCode::kInternal;
  return encode_error_response({code, std::move(message)});
}

std::vector<std::uint8_t> Server::error_frame(const Status& status) {
  return error_frame(status.code, status.message);
}

Expected<Server::PreparedCompress> Server::prepare_compress(
    std::span<const std::uint8_t> frame) {
  auto req = parse_compress_request(frame);
  if (!req.ok()) return req.status();
  auto entry = codec_for(req->codec, req->dims.rank);
  if (!entry.ok()) return entry.status();
  {
    std::lock_guard<std::mutex> lock(*entry->mu);
    if (!entry->codec->supports_rank(req->dims.rank))
      return Status::error(ErrCode::kUnsupported,
                           req->codec + " does not support rank-" +
                               std::to_string(req->dims.rank) + " fields");
  }
  return PreparedCompress{field_from_blob(req->dims, req->field), req->eb,
                          std::move(*entry)};
}

std::vector<std::uint8_t> Server::PreparedCompress::answer(
    std::span<const std::uint8_t> stream) const {
  // Report the bound the encoder resolved and enforced — the same
  // resolution sz::resolve_abs_eb applies on the compress side.
  return encode_compress_response({eb.absolute(field.value_range()), stream});
}

std::vector<std::uint8_t> Server::handle_compress(
    std::span<const std::uint8_t> frame) {
  auto p = prepare_compress(frame);
  if (!p.ok()) return error_frame(p.status());
  std::vector<std::uint8_t> stream;
  {
    std::lock_guard<std::mutex> lock(*p->entry.mu);
    stream = p->entry.codec->compress(p->field, p->eb);
  }
  return p->answer(stream);
}

std::vector<std::uint8_t> Server::handle_decompress(
    std::span<const std::uint8_t> frame) {
  auto req = parse_decompress_request(frame);
  if (!req.ok()) return error_frame(req.status());
  // A temporal artifact holds many timesteps, not one field; no codec
  // decodes it, so refuse before any cache lookup.
  if (const auto pre = format::peek(req->stream);
      pre.ok() && pre->magic == format::kAetc.magic)
    return error_frame(
        ErrCode::kUnsupported,
        "AETC temporal artifacts do not decode through decompress; read "
        "their timesteps with temporal::TemporalReader, or with "
        "read-timestep while the stream session is open");
  std::string codec_name = req->codec;
  if (codec_name.empty()) {
    auto identified = CodecRegistry::instance().identify(req->stream);
    if (!identified.ok()) return error_frame(identified.status());
    codec_name = *identified;
  }
  auto entry = codec_for(codec_name, stream_rank(req->stream));
  if (!entry.ok()) return error_frame(entry.status());
  Expected<Field> result = [&] {
    std::lock_guard<std::mutex> lock(*entry->mu);
    return entry->codec->decompress(req->stream);
  }();
  if (!result.ok()) return error_frame(result.status());
  return encode_decompress_response({result->dims(), field_blob(*result)});
}

std::vector<std::uint8_t> Server::handle_list_codecs() {
  auto& reg = CodecRegistry::instance();
  std::vector<CodecSummary> codecs;
  for (const auto& name : reg.names()) {
    const CodecInfo* info = reg.find(name);
    if (!info) continue;
    codecs.push_back({info->name, info->error_bounded, info->magic,
                      info->description});
  }
  return encode_list_codecs_response(codecs);
}

// ------------------------------------------------------ stream sessions --

std::shared_ptr<Server::StreamSession> Server::find_session(
    std::uint64_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Expected<Server::LockedSession> Server::lock_session(std::uint64_t id) {
  if (auto* t = obs::current_trace()) t->session_id = id;
  auto s = find_session(id);
  if (!s)
    return Status::error(ErrCode::kNoSession,
                         "no stream session " + std::to_string(id));
  std::unique_lock<std::mutex> lock(s->mu);
  if (s->closed)
    return Status::error(ErrCode::kNoSession, "stream session " +
                                                  std::to_string(id) +
                                                  " is closed");
  return LockedSession{std::move(s), std::move(lock)};
}

std::size_t Server::reap_idle_sessions() {
  const auto now = std::chrono::steady_clock::now();
  const auto idle = std::chrono::milliseconds(opt_.session_idle_ms);
  // Reaped sessions are collected here so their mutexes outlive the lock
  // guards below; they free after sessions_mu_ is released.
  std::vector<std::shared_ptr<StreamSession>> doomed;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      StreamSession& s = *it->second;
      // try_lock, not lock: a session mid-operation is busy by definition
      // (and its op will refresh last_used); blocking here would also
      // invert the sessions_mu_ -> session-mu order close-stream uses.
      std::unique_lock<std::mutex> sl(s.mu, std::try_to_lock);
      if (sl.owns_lock() && s.next_ticket == s.done_ticket &&
          now - s.last_used >= idle) {
        s.closed = true;
        doomed.push_back(it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  counters_.sessions_reaped.inc(doomed.size());
  return doomed.size();
}

std::vector<std::uint8_t> Server::handle_open_stream(
    std::span<const std::uint8_t> frame) {
  auto req = parse_open_stream_request(frame);
  if (!req.ok()) return error_frame(req.status());
  reap_idle_sessions();
  const auto overloaded = [&] {
    return error_frame(ErrCode::kOverloaded,
                       "session limit (" + std::to_string(opt_.max_sessions) +
                           ") reached; close or abandon a stream first");
  };
  {
    // Cheap pre-check so a saturated server rejects before paying for a
    // codec build; the insert below re-checks under the same lock.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.size() >= opt_.max_sessions) return overloaded();
  }
  temporal::TemporalWriter::Options wopt;
  wopt.inner = req->codec;
  wopt.gop = static_cast<std::size_t>(req->gop);
  // Sessions build codecs through the server's maker, not the shared
  // request cache: a session's encoder chain is stateful and lives as
  // long as the session, so it owns a fresh instance — but AE-SZ still
  // rides the trained-model path and ticks ae_model_loads.
  wopt.factory = [this](const std::string& name,
                        int rank) -> std::unique_ptr<Compressor> {
    const CodecName c = canonical(name);
    auto built = build_codec(c.base, c.parallel, rank);
    if (!built.ok())
      throw Error(built.status().code, built.status().message);
    return std::move(built).value();
  };
  auto session = std::make_shared<StreamSession>();
  // Throws a typed Error on unknown codec / unusable bound / unsupported
  // rank — handle_frame's catch turns it into the error frame.
  session->writer = std::make_unique<temporal::TemporalWriter>(
      req->dims, req->eb, std::move(wopt));
  session->last_used = std::chrono::steady_clock::now();
  const std::uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  session->id = id;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.size() >= opt_.max_sessions) return overloaded();
    sessions_.emplace(id, std::move(session));
  }
  counters_.sessions_opened.inc();
  if (auto* t = obs::current_trace()) t->session_id = id;
  return encode_open_stream_response({id});
}

std::vector<std::uint8_t> Server::handle_append_timestep(
    std::span<const std::uint8_t> frame) {
  auto req = parse_append_timestep_request(frame);
  if (!req.ok()) return error_frame(req.status());
  auto locked = lock_session(req->session_id);
  if (!locked.ok()) return error_frame(locked.status());
  StreamSession* s = locked->session.get();
  const std::size_t want = s->writer->dims().total() * sizeof(float);
  if (req->field.size() != want)
    return error_frame(ErrCode::kInvalidArgument,
                       "field is " + std::to_string(req->field.size()) +
                           " bytes; session dims need " +
                           std::to_string(want));
  const auto res =
      s->writer->append(field_from_blob(s->writer->dims(), req->field));
  s->last_used = std::chrono::steady_clock::now();
  counters_.session_timesteps_stored.inc();
  return encode_append_timestep_response(
      {res.timestep, res.mode == temporal::kModeResidual, res.abs_eb,
       res.stored_bytes});
}

std::vector<std::uint8_t> Server::handle_read_timestep(
    std::span<const std::uint8_t> frame) {
  auto req = parse_read_timestep_request(frame);
  if (!req.ok()) return error_frame(req.status());
  auto locked = lock_session(req->session_id);
  if (!locked.ok()) return error_frame(locked.status());
  StreamSession* s = locked->session.get();
  auto field = s->writer->read(static_cast<std::size_t>(req->timestep));
  if (!field.ok()) return error_frame(field.status());
  s->last_used = std::chrono::steady_clock::now();
  return encode_read_timestep_response({field->dims(), field_blob(*field)});
}

std::vector<std::uint8_t> Server::handle_close_stream(
    std::span<const std::uint8_t> frame) {
  auto req = parse_close_stream_request(frame);
  if (!req.ok()) return error_frame(req.status());
  auto locked = lock_session(req->session_id);
  if (!locked.ok()) return error_frame(locked.status());
  StreamSession* s = locked->session.get();
  const auto artifact = s->writer->bytes();
  if (artifact.size() + 64 > kMaxFrameBytes) {
    // Refusing to close would strand the data the client streamed in, so
    // keep the session ALIVE: the client can still read timesteps back.
    return error_frame(
        ErrCode::kUnsupported,
        "artifact (" + std::to_string(artifact.size()) +
            " bytes) exceeds the frame limit; session stays open");
  }
  const std::uint64_t steps = s->writer->timesteps();
  s->closed = true;
  s->writer.reset();
  {
    std::lock_guard<std::mutex> map_lock(sessions_mu_);
    sessions_.erase(req->session_id);
  }
  counters_.sessions_closed.inc();
  return encode_close_stream_response({steps, artifact});
}

// ------------------------------------------------ progressive retrieval --

std::vector<std::uint8_t> Server::handle_read_partial(
    std::span<const std::uint8_t> frame) {
  auto req = parse_read_partial_request(frame);
  if (!req.ok()) return error_frame(req.status());
  // Pure layer-table math — no codec is built and nothing is decoded. The
  // answer is a PREFIX of the client's own bytes, itself a valid AEPR
  // stream (truncation at exact layer boundaries parses by design), so
  // the client refines or decodes it locally at the recorded bound.
  const auto cut =
      req->mode == PartialMode::kByteBudget
          ? progressive::truncate_to_bytes(
                req->stream, static_cast<std::size_t>(req->budget))
          : progressive::truncate_to_bound(req->stream, req->bound);
  if (!cut.ok()) return error_frame(cut.status());
  hists_.progressive_bytes_served.observe(cut->bytes);
  hists_.progressive_layers_served.observe(cut->layers);
  return encode_read_partial_response({cut->abs_eb, cut->layers,
                                       cut->total_layers,
                                       req->stream.first(cut->bytes)});
}

void Server::refresh_gauges() const {
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    gauges_.batch_queue_depth.set(
        static_cast<std::int64_t>(batch_queue_.size()));
  }
  gauges_.pool_queue_depth.set(static_cast<std::int64_t>(pool_->pending()));
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    gauges_.sessions_active.set(static_cast<std::int64_t>(sessions_.size()));
  }
}

StatsResponse Server::snapshot() const {
  refresh_gauges();
  StatsResponse out;
  for (const auto& e : metrics_.snapshot()) {
    switch (e.kind) {
      case obs::MetricKind::kCounter:
        out.counters.emplace_back(e.name, e.counter);
        break;
      case obs::MetricKind::kGauge:
        // Stats rows are unsigned varints; a transiently negative gauge
        // (racing sub-before-add) reads 0, never 2^64-ish.
        out.counters.emplace_back(
            e.name,
            e.gauge > 0 ? static_cast<std::uint64_t>(e.gauge) : 0);
        break;
      case obs::MetricKind::kHistogram: {
        // Histogram summaries ride as additional named rows — the only
        // compatible extension of the stats frame, since old parsers
        // reject trailing bytes but look counters up by name.
        const auto q = [&](double p) {
          return static_cast<std::uint64_t>(
              std::llround(e.hist.quantile(p)));
        };
        out.counters.emplace_back(e.name + "_count", e.hist.count);
        out.counters.emplace_back(e.name + "_sum", e.hist.sum);
        out.counters.emplace_back(e.name + "_p50", q(0.50));
        out.counters.emplace_back(e.name + "_p90", q(0.90));
        out.counters.emplace_back(e.name + "_p99", q(0.99));
        break;
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> Server::handle_stats() {
  reap_idle_sessions();  // the opportunistic reap tick
  return encode_stats_response(snapshot());
}

std::vector<std::uint8_t> Server::handle_metrics() {
  reap_idle_sessions();  // same opportunistic tick as stats
  refresh_gauges();
  const std::string text = metrics_.prometheus();
  return encode_metrics_response(
      {{reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}});
}

std::vector<std::uint8_t> Server::handle_deadline(
    std::span<const std::uint8_t> frame) {
  const auto req = parse_deadline_request(frame);
  if (!req.ok()) return error_frame(req.status());
  if (req->deadline_ms > 0) {
    // The budget bounds queue wait, checked once at execution start: a
    // request that got a worker in time runs to completion (killing work
    // mid-flight would leave sessions half-mutated), one that waited out
    // its budget is shed without paying for the execution it no longer
    // has a client for.
    const auto* t = obs::current_trace();
    const std::uint64_t waited_ms =
        (t ? t->queue_wait_ns : 0) / 1'000'000;
    if (waited_ms >= req->deadline_ms) {
      counters_.timeout_responses.inc();
      hists_.deadline_slack_ms.observe(0);
      return error_frame(ErrCode::kTimeout,
                         "deadline of " + std::to_string(req->deadline_ms) +
                             " ms expired after " + std::to_string(waited_ms) +
                             " ms in queue");
    }
    hists_.deadline_slack_ms.observe(req->deadline_ms - waited_ms);
  }
  const auto inner_op = peek_op(req->inner);
  if (!inner_op.ok()) return error_frame(inner_op.status());
  // Re-dispatch stamps the trace with the INNER op — the envelope is
  // plumbing, the inner request is what latency should be billed to.
  return dispatch(*inner_op, req->inner);
}

void Server::finish_trace(const obs::RequestTrace& t, bool count_request) {
  if (count_request) {
    obs::Histogram& by_op = [&]() -> obs::Histogram& {
      switch (static_cast<Op>(t.op_raw)) {
        case Op::kCompressRequest:
          return hists_.request_ns_compress;
        case Op::kDecompressRequest:
        case Op::kReadPartialRequest:  // the other retrieval path
          return hists_.request_ns_decompress;
        case Op::kOpenStreamRequest:
        case Op::kAppendTimestepRequest:
        case Op::kReadTimestepRequest:
        case Op::kCloseStreamRequest:
          return hists_.request_ns_session;
        case Op::kListCodecsRequest:
        case Op::kStatsRequest:
        case Op::kMetricsRequest:
          return hists_.request_ns_admin;
        default:  // op_raw 0: the frame never parsed to a request opcode
          return hists_.request_ns_other;
      }
    }();
    by_op.observe(t.exec_ns());
    if (t.queue_wait_ns) hists_.queue_wait_ns.observe(t.queue_wait_ns);
    if (t.batch_wait_ns) hists_.batch_wait_ns.observe(t.batch_wait_ns);
    hists_.request_bytes_in.observe(t.bytes_in);
    hists_.response_bytes_out.observe(t.bytes_out);
  }
  // Stage time bills whichever trace carried it — a solo request, or the
  // synthetic batch-group trace when stages ran once for a whole group.
  using prof::Stage;
  const auto stage = [&](Stage s) {
    return t.stage_ns[static_cast<std::size_t>(s)];
  };
  if (stage(Stage::kPredict))
    hists_.predict_ns.observe(stage(Stage::kPredict));
  if (stage(Stage::kQuantize))
    hists_.quantize_ns.observe(stage(Stage::kQuantize));
  if (stage(Stage::kEntropy))
    hists_.entropy_ns.observe(stage(Stage::kEntropy));
  if (stage(Stage::kInference))
    hists_.inference_ns.observe(stage(Stage::kInference));
  if (tracer_) tracer_->write(t);
  if (opt_.slow_ms > 0 &&
      static_cast<double>(t.wall_ns()) / 1e6 >= opt_.slow_ms) {
    AESZ_LOG_WARN(
        "server",
        "slow request id=%" PRIu64 " op=%s conn=%" PRIu64 " session=%" PRIu64
        " wall=%.3fms queue=%.3fms batch=%.3fms exec=%.3fms"
        " predict=%.3fms quantize=%.3fms entropy=%.3fms inference=%.3fms"
        " bytes_in=%" PRIu64 " bytes_out=%" PRIu64 "%s",
        t.id, t.op, t.conn_id, t.session_id,
        static_cast<double>(t.wall_ns()) / 1e6,
        static_cast<double>(t.queue_wait_ns) / 1e6,
        static_cast<double>(t.batch_wait_ns) / 1e6,
        static_cast<double>(t.exec_ns()) / 1e6,
        static_cast<double>(stage(Stage::kPredict)) / 1e6,
        static_cast<double>(stage(Stage::kQuantize)) / 1e6,
        static_cast<double>(stage(Stage::kEntropy)) / 1e6,
        static_cast<double>(stage(Stage::kInference)) / 1e6, t.bytes_in,
        t.bytes_out, t.error ? " error=1" : "");
  }
}

std::vector<std::uint8_t> Server::dispatch(
    Op op, std::span<const std::uint8_t> frame) {
  if (auto* t = obs::current_trace()) {
    t->op = op_name(op);
    t->op_raw = static_cast<std::uint8_t>(op);
  }
  switch (op) {
    case Op::kCompressRequest:
      counters_.compress_requests.inc();
      return handle_compress(frame);
    case Op::kDecompressRequest:
      counters_.decompress_requests.inc();
      return handle_decompress(frame);
    case Op::kListCodecsRequest:
      counters_.list_codecs_requests.inc();
      return handle_list_codecs();
    case Op::kStatsRequest:
      counters_.stats_requests.inc();
      return handle_stats();
    case Op::kOpenStreamRequest:
      counters_.open_stream_requests.inc();
      return handle_open_stream(frame);
    case Op::kAppendTimestepRequest:
      counters_.append_timestep_requests.inc();
      return handle_append_timestep(frame);
    case Op::kReadTimestepRequest:
      counters_.read_timestep_requests.inc();
      return handle_read_timestep(frame);
    case Op::kCloseStreamRequest:
      counters_.close_stream_requests.inc();
      return handle_close_stream(frame);
    case Op::kMetricsRequest:
      counters_.metrics_requests.inc();
      return handle_metrics();
    case Op::kReadPartialRequest:
      counters_.read_partial_requests.inc();
      return handle_read_partial(frame);
    case Op::kDeadlineRequest:
      counters_.deadline_requests.inc();
      return handle_deadline(frame);
    default:
      return error_frame(ErrCode::kUnsupported,
                         std::string(op_name(op)) + " is not a request");
  }
}

void Server::begin_request(obs::RequestTrace& t, std::size_t bytes_in,
                           std::uint64_t start_ns, bool batched) {
  counters_.requests.inc();
  counters_.bytes_in.inc(bytes_in);
  t.bytes_in = bytes_in;
  t.exec_start_ns = start_ns;
  // Computed here, not at dequeue, so wait + exec == wall exactly. A
  // batched request spent its whole wait coalescing with the batcher, so
  // it bills batch_wait (queue_wait stays 0 — the two never overlap).
  if (t.admit_ns && start_ns > t.admit_ns)
    (batched ? t.batch_wait_ns : t.queue_wait_ns) = start_ns - t.admit_ns;
}

std::vector<std::uint8_t> Server::seal(obs::RequestTrace& t,
                                       std::vector<std::uint8_t> response) {
  if (response.size() > kMaxFrameBytes) {
    // e.g. a sub-cap compressed stream that decodes past the frame cap.
    // The peer's transport would refuse its length prefix as a framing
    // violation and drop the connection instead of getting an answer.
    // Answer with a typed error instead.
    response = error_frame(
        ErrCode::kUnsupported,
        "response (" + std::to_string(response.size()) +
            " bytes) exceeds the frame limit; request a smaller field");
  }
  counters_.bytes_out.inc(response.size());
  t.bytes_out = response.size();
  if (auto op = peek_op(response); op.ok() && *op == Op::kErrorResponse)
    t.error = true;
  t.exec_end_ns = obs::monotonic_ns();
  return response;
}

std::vector<std::uint8_t> Server::handle_frame(
    std::span<const std::uint8_t> frame) {
  // A submit() task may already have installed this thread's trace
  // (stamped with admission time and connection identity); a direct
  // synchronous call owns a local one and finalizes it on exit.
  obs::RequestTrace local;
  obs::RequestTrace* t = obs::current_trace();
  const bool own = t == nullptr;
  std::optional<obs::TraceScope> scope;
  if (own) {
    local.id = obs::next_request_id();
    t = &local;
    scope.emplace(t);
  }
  begin_request(*t, frame.size(), obs::monotonic_ns(), /*batched=*/false);
  std::vector<std::uint8_t> response;
  try {
    const auto op = peek_op(frame);
    response = op.ok() ? dispatch(*op, frame) : error_frame(op.status());
  } catch (const std::exception&) {
    response = error_frame(caught_status());
  }
  response = seal(*t, std::move(response));
  if (own) finish_trace(*t);
  return response;
}

void Server::submit(std::vector<std::uint8_t> frame, DoneFn done,
                    std::uint64_t conn_id) {
  obs::RequestTrace t;
  t.id = obs::next_request_id();
  t.conn_id = conn_id;
  t.admit_ns = obs::monotonic_ns();
  // Route: session ticket, batch, or direct. A deadline envelope is
  // classified by its INNER frame for the ticket, so an enveloped append
  // still takes its arrival-order ticket (the view aliases `frame`, which
  // outlives classification), but by its OUTER frame for batching, so an
  // enveloped compress takes the direct route, where the deadline check
  // runs before any work.
  const auto outer = peek_op(frame);
  std::span<const std::uint8_t> body(frame);
  if (outer.ok() && *outer == Op::kDeadlineRequest)
    if (auto env = parse_deadline_request(frame); env.ok()) body = env->inner;
  // Session-scoped ops (append/read/close) are ticketed: the ticket is
  // taken HERE, in arrival order, and the task waits its turn before
  // running — so a client that pipelines appends without waiting for
  // responses still gets timesteps stored in the order it sent them, even
  // though pool workers complete out of order. Deadlock-free because the
  // ThreadPool is FIFO: a session's lowest unfinished ticket was enqueued
  // before every task that could be waiting on it, so it is always
  // running or done — never parked behind a waiter. An unknown session or
  // malformed body gets no ticket: handle_frame() answers the typed
  // kNoSession/parse error itself.
  std::shared_ptr<StreamSession> session;
  std::uint64_t ticket = 0;
  if (auto sid = peek_session_id(body);
      sid.ok() && (session = find_session(*sid))) {
    std::lock_guard<std::mutex> lock(session->mu);
    ticket = session->next_ticket++;
    t.session_id = *sid;
  } else if (opt_.max_batch > 1 && outer.ok() &&
             *outer == Op::kCompressRequest) {
    // Batchable = a well-formed compress request for plain (non-parallel)
    // AE-SZ. Anything else takes the direct route, where handle_frame()
    // re-derives the classification and answers (or types the error).
    if (auto req = parse_compress_request(frame); req.ok()) {
      const CodecName c = canonical(req->codec);
      if (!c.parallel && c.base == "ae-sz") {
        std::string key = c.key(req->dims.rank);
        {
          std::lock_guard<std::mutex> lock(batch_mu_);
          batch_queue_.push_back(BatchJob{std::move(frame), std::move(key),
                                          std::move(done), t});
        }
        batch_cv_.notify_one();
        return;
      }
    }
  }
  pool_->submit([this, session, ticket, t, f = std::move(frame),
                 cb = std::move(done)]() mutable {
    std::vector<std::uint8_t> response;
    {
      // The scope covers the ticket wait too: that wait is part of this
      // request's queue time, not its execution time.
      obs::TraceScope scope(&t);
      if (session) {
        std::unique_lock<std::mutex> lock(session->mu);
        session->cv.wait(lock, [&] { return session->done_ticket == ticket; });
      }
      response = handle_frame(f);
    }
    if (session) {
      {
        std::lock_guard<std::mutex> lock(session->mu);
        // Advance unconditionally — later tickets must progress even
        // when this op closed the session or answered an error.
        ++session->done_ticket;
      }
      session->cv.notify_all();
    }
    finish_trace(t);
    cb(std::move(response));
  });
}

void Server::batcher_main() {
  std::unique_lock<std::mutex> lock(batch_mu_);
  for (;;) {
    batch_cv_.wait(lock,
                   [&] { return batch_stop_ || !batch_queue_.empty(); });
    if (batch_queue_.empty()) {
      if (batch_stop_) return;  // stopped and drained
      continue;
    }
    // The oldest queued job opens a group and fixes its key; compatible
    // jobs anywhere in the queue join (other keys keep their order and
    // form their own groups on later iterations).
    std::vector<BatchJob> group;
    group.push_back(std::move(batch_queue_.front()));
    batch_queue_.pop_front();
    const std::string key = group.front().key;
    const auto extract_compatible = [&] {
      for (auto it = batch_queue_.begin();
           it != batch_queue_.end() && group.size() < opt_.max_batch;) {
        if (it->key == key) {
          group.push_back(std::move(*it));
          it = batch_queue_.erase(it);
        } else {
          ++it;
        }
      }
    };
    extract_compatible();
    if (group.size() < opt_.max_batch && opt_.batch_delay_us > 0 &&
        !batch_stop_) {
      // Hold the group open briefly for companions; a full group or
      // server shutdown ends the wait early.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(opt_.batch_delay_us);
      while (group.size() < opt_.max_batch && !batch_stop_) {
        if (batch_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          extract_compatible();
          break;
        }
        extract_compatible();
      }
    }
    lock.unlock();
    run_batch(group);  // never throws
    lock.lock();
  }
}

void Server::run_batch(std::vector<BatchJob>& jobs) {
  // One synthetic group trace owns the execution span and the codec stage
  // time (the stages ran ONCE for the whole group); each member keeps its
  // own admission trace carrying its coalesce wait, bytes, and
  // per-request latency, with exec = the shared group span.
  // finish_trace(group, false) keeps the synthetic trace out of the
  // per-request histograms — its members are observed individually.
  obs::RequestTrace group;
  group.id = obs::next_request_id();
  group.op = "compress-batch";
  group.exec_start_ns = obs::monotonic_ns();
  obs::TraceScope scope(&group);

  counters_.batch_executions.inc();
  counters_.batched_requests.inc(jobs.size());
  hists_.batch_size.observe(jobs.size());

  // Members are begun, prepared, answered and sealed exactly like a solo
  // compress through handle_frame(), so coalescing is invisible in the
  // per-request counters; only the codec call is shared.
  const auto finish = [this](BatchJob& job,
                             std::vector<std::uint8_t> response) {
    response = seal(job.trace, std::move(response));
    finish_trace(job.trace);
    job.done(std::move(response));
  };
  std::vector<BatchJob*> members;
  std::vector<PreparedCompress> live;
  for (auto& job : jobs) {
    job.trace.op = op_name(Op::kCompressRequest);
    job.trace.op_raw = static_cast<std::uint8_t>(Op::kCompressRequest);
    begin_request(job.trace, job.frame.size(), group.exec_start_ns,
                  /*batched=*/true);
    counters_.compress_requests.inc();
    auto p = prepare_compress(job.frame);
    if (!p.ok()) {
      finish(job, error_frame(p.status()));
      continue;
    }
    members.push_back(&job);
    live.push_back(std::move(*p));
  }
  if (!live.empty()) {
    // One canonical key per group — every live member shares one instance
    // and one per-instance mutex.
    std::lock_guard<std::mutex> lock(*live.front().entry.mu);
    Compressor& codec = *live.front().entry.codec;
    std::vector<std::vector<std::uint8_t>> streams;
    auto* bc = dynamic_cast<BatchCompressor*>(&codec);
    if (bc && live.size() > 1) {
      std::vector<const Field*> fields;
      std::vector<ErrorBound> ebs;
      for (const PreparedCompress& p : live) {
        fields.push_back(&p.field);
        ebs.push_back(p.eb);
      }
      try {
        streams = bc->compress_batch(fields, ebs);
      } catch (...) {
        // One bad field fails a whole compress_batch call; redo the group
        // solo below so each request gets its own success or typed error.
        streams.clear();
      }
    }
    const bool batched = streams.size() == live.size();
    if (!batched) streams.assign(live.size(), {});
    for (std::size_t i = 0; i < live.size(); ++i) {
      std::vector<std::uint8_t> response;
      try {
        if (!batched) streams[i] = codec.compress(live[i].field, live[i].eb);
        response = live[i].answer(streams[i]);
      } catch (const std::exception&) {
        response = error_frame(caught_status());
      }
      finish(*members[i], std::move(response));
    }
  }
  group.exec_end_ns = obs::monotonic_ns();
  finish_trace(group, /*count_request=*/false);
}

}  // namespace aesz::service
