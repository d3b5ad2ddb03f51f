// perfbench_e2e — closed-loop service benchmark over an in-process
// EventServer on loopback TCP (the front end aesz_server runs).
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --workers W --omp-threads T --model PATH
//                 [--spans-out FILE]
//
// Workloads (README.md in this directory says why each exists):
//   archive-sz    one connection; distinct 2-D CESM-like 512x1024 and 3-D
//                 NYX-like 64^3 fields at rel:1e-3 through SZ2.1, SZinterp,
//                 ZFP and parallel:SZ2.1; a compress phase, then a
//                 decompress phase.
//   archive-aesz  one connection; distinct CESM-like 256x512 fields at
//                 rel:1e-2 pipelined 8 deep through Client::compress_many
//                 to a server holding a trained AE-SZ model, then a
//                 decompress phase.
//   interactive   two connections; each keeps an SZ2.1 stream session
//                 (192x384, gop 8), appends successive timesteps, previews
//                 Zipf-picked progressive:SZ2.1 catalog snapshots at a 1/4
//                 byte budget, and reads earlier timesteps back.
//
// Each workload is a fixed op sequence drawn from --seed; its length is
// --seconds times a per-workload rate constant, so counts, bytes and
// ratios repeat exactly for one (seed, seconds) pair. Every decode is
// checked against the bound the server reported; a violation makes the
// run incorrect and the exit code 1.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// once, exactly as --trace 0 does, then builds request spans from its op
// records and replays its inputs through each layer's public functions to
// split request time by layer; it prints the per-layer metrics and writes
// the spans to --spans-out.
// The last stdout line is the JSON result object.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <barrier>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/aesz.hpp"
#include "core/model_zoo.hpp"
#include "data/synth.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "temporal/aetc.hpp"
#include "temporal/temporal.hpp"
#include "util/cli.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/stage_timer.hpp"

namespace {

using namespace aesz;
namespace svc = aesz::service;

// ------------------------------------------------------------- helpers --

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

std::span<const std::uint8_t> raw_bytes(const Field& f) {
  return {reinterpret_cast<const std::uint8_t*>(f.data()), f.size() * 4};
}

double field_bytes(const Field& f) { return static_cast<double>(f.size() * 4); }

/// splitmix64 of (seed, salt): independent synth seeds per input stream.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Run fn(i) for i in [0, n) on up to four threads. Input generation only:
/// it happens before any timing, and every item is a pure function of
/// its index and the seed, so the result does not depend on scheduling.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min<std::size_t>(
      n, std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (auto& t : threads) t.join();
}

/// Outcome of checking one decoded field against its bound.
enum class Verdict { kOk, kUlpExcess, kViolation };

/// Every value of `dec` must lie within `abs_eb` of `orig`, with the 1e-6
/// relative slack the repository's own tests allow. `float32_ulp` admits
/// one more float32 ulp of the value, counted apart as kUlpExcess so it
/// stays visible: only temporal reads get it, for the known defect of
/// their float32 reconstruction (see README.md, "Known defects").
Verdict check(const Field& orig, const Field& dec, double abs_eb,
              bool float32_ulp = false) {
  if (!(orig.dims() == dec.dims()) || !(abs_eb > 0)) return Verdict::kViolation;
  const double limit = abs_eb * (1 + 1e-6);
  Verdict v = Verdict::kOk;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const double o = orig.at(i), d = dec.at(i);
    const double err = std::abs(o - d);
    if (err <= limit) continue;
    if (!float32_ulp) return Verdict::kViolation;
    const auto mag = static_cast<float>(std::max(std::abs(o), std::abs(d)));
    const double ulp = std::nextafter(mag, INFINITY) - mag;
    if (err > limit + ulp) return Verdict::kViolation;
    v = Verdict::kUlpExcess;
  }
  return v;
}

struct CheckCounts {
  std::size_t checked = 0, ulp_excess = 0, violations = 0;
  void add(Verdict v) {
    ++checked;
    ulp_excess += v == Verdict::kUlpExcess;
    violations += v == Verdict::kViolation;
  }
  void merge(const CheckCounts& o) {
    checked += o.checked;
    ulp_excess += o.ulp_excess;
    violations += o.violations;
  }
};

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// One numeric field of /proc/self/status (the Vm* fields are in kB).
double proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string k = std::string(key) + ":";
  while (std::getline(in, line))
    if (line.rfind(k, 0) == 0) return std::atof(line.c_str() + k.size());
  die(std::string("no ") + key + " in /proc/self/status");
}

/// Peak RSS growth over a window, in MB: construction resets VmHWM to the
/// current RSS (so everything allocated before, such as the pre-generated
/// inputs, is excluded) and mb() reads the peak since then.
class PeakRss {
 public:
  PeakRss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    if (!out.good()) die("cannot reset peak RSS via /proc/self/clear_refs");
    out.close();
    rss0_kb_ = proc_status_kb("VmRSS");
  }
  double mb() const { return (proc_status_kb("VmHWM") - rss0_kb_) / 1024.0; }

 private:
  double rss0_kb_ = 0;
};

// --------------------------------------------------------------- spans --

/// One benchmark-side span. Request spans (parent -1, request >= 0) cover
/// a client round trip; their children are the layer calls that serve
/// the same op, timed inline (a preview's local decode) or by replaying
/// the op's inputs through the layer's public functions afterwards.
/// Spans with request -1 are layer work outside any request (catalog
/// encoding, the serial reference of the pipeline speed-up).
struct Span {
  std::string name;
  std::int64_t start = 0, end = 0;
  int parent = -1;
  std::int64_t request = -1;
  double dur_ms() const { return to_ms(end - start); }
};

class Tracer {
 public:
  int add(std::string name, std::int64_t start, std::int64_t end, int parent,
          std::int64_t request) {
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Run `fn` as a span named `name`; returns the span index.
  template <typename Fn>
  int time(const std::string& name, int parent, std::int64_t request,
           Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    return add(name, t0, now_ns(), parent, request);
  }

  /// Run a codec-level call as a span and add the prof stage time it
  /// accumulated as synthetic child spans (sz.predict, core.quantize,
  /// lossless.entropy, nn.inference), laid end to end from its start.
  /// The stage counters are process-wide, so only single-threaded calls
  /// may be attributed this way.
  template <typename Fn>
  int time_staged(const std::string& name, int parent, std::int64_t request,
                  Fn&& fn) {
    const prof::StageTimes s0 = prof::snapshot();
    const int id = time(name, parent, request, std::forward<Fn>(fn));
    const prof::StageTimes s1 = prof::snapshot();
    const std::pair<const char*, double> stages[] = {
        {"sz.predict", s1.predict - s0.predict},
        {"core.quantize", s1.quantize - s0.quantize},
        {"lossless.entropy", s1.entropy - s0.entropy},
        {"nn.inference", s1.inference - s0.inference}};
    std::int64_t at = spans_[static_cast<std::size_t>(id)].start;
    for (const auto& [stage, sec] : stages) {
      if (sec <= 0) continue;
      const auto ns = static_cast<std::int64_t>(sec * 1e9);
      add(stage, at, at + ns, id, request);
      at += ns;
    }
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: duration minus the durations of its children.
  std::vector<double> self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].dur_ms();
    for (const Span& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.dur_ms();
    return self;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out.good()) die("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ op model --

enum class Kind { kCompress = 0, kDecompress, kPreview, kAppend, kRead };
constexpr const char* kKindNames[] = {"compress", "decompress", "preview",
                                      "append", "read"};
constexpr int kKinds = 5;

bool is_write(Kind k) { return k == Kind::kCompress || k == Kind::kAppend; }

/// One timed client op. `item` indexes the workload's own op table.
struct OpRec {
  Kind kind = Kind::kCompress;
  int conn = 0;
  std::size_t item = 0;
  std::size_t group = 0;        // sample group of the op sequence (mb_per_s)
  std::int64_t t0 = 0, t1 = 0;  // client round trip (+ a preview's decode)
  std::int64_t d0 = 0, d1 = 0;  // preview: local decode inside [t0, t1]
  std::size_t requests = 1;     // protocol requests the op carried
  std::size_t failed = 0;       // of those, failed or refused
  double bytes = 0;             // original (write) or decoded (read) bytes
  std::size_t stored = 0;       // compressed bytes the server produced
};

struct RunResult {
  std::vector<OpRec> ops;
  double wall_s = 0;        // summed over connections
  double peak_rss_mb = 0;   // over the ops (PeakRss)
  CheckCounts checks;
};

using Clients = std::vector<svc::Client*>;

/// Per-layer metrics a workload adds beyond the generic span roll-up.
using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t connections() const { return 1; }
  /// One warm request per (codec, rank) the workload uses.
  virtual void warm(const Clients& clients) = 0;
  /// The timed phase: a fixed op sequence, every output checked.
  virtual RunResult run(const Clients& clients) = 0;
  /// Re-execute the ops of `res` through each layer's public functions,
  /// as children of the request spans `req_span[i]` of res.ops[i].
  virtual void replay(const RunResult& res, const std::vector<int>& req_span,
                      Tracer& tr, Metrics& m) = 0;
  /// Sanity checks on the workload's own premises (e.g. the AE wins
  /// blocks); failures abort the run loudly.
  virtual void self_check() {}
};

/// Time one op, recording it whatever the outcome.
template <typename Fn>
OpRec timed(Kind kind, int conn, std::size_t item, std::size_t group,
            Fn&& fn) {
  OpRec r;
  r.kind = kind;
  r.conn = conn;
  r.item = item;
  r.group = group;
  r.t0 = now_ns();
  fn(r);
  if (r.t1 == 0) r.t1 = now_ns();
  return r;
}

// ------------------------------------------------- protocol replay spans --

/// Encode + parse of one request and its response, as protocol.encode /
/// protocol.parse children of a request span.
template <typename EncReq, typename ParseReq, typename EncResp,
          typename ParseResp>
void protocol_spans(Tracer& tr, int parent, std::int64_t req, EncReq enc_req,
                    ParseReq parse_req, EncResp enc_resp,
                    ParseResp parse_resp) {
  std::vector<std::uint8_t> frame;
  tr.time("protocol.encode", parent, req, [&] { frame = enc_req(); });
  tr.time("protocol.parse", parent, req, [&] {
    if (!parse_req(frame).ok()) die("replay: request did not parse");
  });
  tr.time("protocol.encode", parent, req, [&] { frame = enc_resp(); });
  tr.time("protocol.parse", parent, req, [&] {
    if (!parse_resp(frame).ok()) die("replay: response did not parse");
  });
}

void crc_span(Tracer& tr, int parent, std::int64_t req,
              std::span<const std::uint8_t> bytes) {
  volatile std::uint32_t sink = 0;
  tr.time("crc.seal", parent, req, [&] { sink = util::crc32c(bytes); });
  (void)sink;
}

std::unique_ptr<Compressor> registry_codec(const std::string& name, int rank) {
  auto c = CodecRegistry::instance().create(name, rank);
  if (!c.ok()) die("registry: " + c.status().str());
  return std::move(c).value();
}

/// The layer a codec's own (non-stage) time belongs to.
std::string codec_layer(const std::string& codec) {
  if (codec.rfind("parallel:", 0) == 0) return "pipeline";
  if (codec == "ZFP") return "zfp";
  return "sz";
}

// ----------------------------------------------------------- archive-sz --

class ArchiveSz final : public Workload {
 public:
  // Rounds per measured second: one round is 4 codecs x (one 2-D 2 MiB
  // field + one 3-D 1 MiB field), compressed and later decompressed.
  static constexpr double kRoundsPerSecond = 2.5;

  ArchiveSz(std::uint64_t seed, double seconds) {
    const auto rounds = static_cast<std::size_t>(
        std::max(1.0, std::round(seconds * kRoundsPerSecond)));
    // Item i: codec (i / 2) % 4, 2-D when i is even. Every input is an
    // independent draw (its own synth seed), so totals over a run average
    // out the per-field spread in compressibility.
    items_.resize(rounds * std::size(kCodecs) * 2);
    parallel_for(items_.size(), [&](std::size_t i) {
      Item& it = items_[i];
      it.codec = kCodecs[(i / 2) % std::size(kCodecs)];
      const int t = 100 + static_cast<int>(i);
      if (i % 2 == 0) {
        it.field = synth::cesm_cldhgh(512, 1024, t, mix(seed, 1000 + i));
      } else {
        it.field = synth::nyx_baryon_density(64, t, mix(seed, 1000 + i));
        it.field.log_transform();
      }
    });
  }

  void warm(const Clients& c) override {
    const Field w2 = synth::cesm_cldhgh(64, 128, 1, 77);
    Field w3 = synth::nyx_baryon_density(16, 1, 78);
    w3.log_transform();
    for (const char* codec : kCodecs)
      for (const Field* w : {&w2, static_cast<const Field*>(&w3)})
        if (!c[0]->compress(codec, *w, kBound).ok())
          die(std::string("warm compress failed: ") + codec);
  }

  /// Round by round: the round's compresses back to back, then its
  /// decompresses back to back. Requests of one kind stay in runs (so the
  /// transport stall hits them consistently) while both kinds sample the
  /// whole measured window.
  RunResult run(const Clients& c) override {
    RunResult res;
    const PeakRss peak;
    const std::int64_t start = now_ns();
    for (std::size_t r = 0; r * kRound < items_.size(); ++r) {
      for (std::size_t i = r * kRound; i < (r + 1) * kRound; ++i) {
        Item& it = items_[i];
        res.ops.push_back(timed(Kind::kCompress, 0, i, r, [&](OpRec& op) {
          auto out = c[0]->compress(it.codec, it.field, kBound);
          op.t1 = now_ns();
          op.bytes = field_bytes(it.field);
          if (!out.ok()) { op.failed = 1; it.stream.clear(); return; }
          it.stream = std::move(out->stream);
          it.abs_eb = out->abs_eb;
          op.stored = it.stream.size();
        }));
      }
      for (std::size_t i = r * kRound; i < (r + 1) * kRound; ++i) {
        Item& it = items_[i];
        if (it.stream.empty()) continue;
        res.ops.push_back(timed(Kind::kDecompress, 0, i, r, [&](OpRec& op) {
          auto out = c[0]->decompress(it.stream, it.codec);
          op.t1 = now_ns();
          op.bytes = field_bytes(it.field);
          if (!out.ok()) { op.failed = 1; return; }
          res.checks.add(check(it.field, *out, it.abs_eb));
        }));
        // Keep the client's footprint flat: peak RSS is the service's.
        std::vector<std::uint8_t>().swap(it.stream);
      }
    }
    res.wall_s = to_ms(now_ns() - start) * 1e-3;
    res.peak_rss_mb = peak.mb();
    return res;
  }

  void replay(const RunResult& res, const std::vector<int>& req_span,
              Tracer& tr, Metrics& m) override {
    std::map<std::pair<std::string, int>, std::unique_ptr<Compressor>> codecs;
    const auto codec_for = [&](const std::string& name, int rank)
        -> Compressor& {
      auto& slot = codecs[{name, rank}];
      if (!slot) slot = registry_codec(name, rank);
      return *slot;
    };
    double serial_ms = 0, parallel_ms = 0;
    std::map<std::size_t, std::vector<std::uint8_t>> streams;  // by item
    for (std::size_t i = 0; i < res.ops.size(); ++i) {
      const OpRec& op = res.ops[i];
      if (op.failed) continue;
      const Item& it = items_[op.item];
      const int parent = req_span[i];
      const auto req = static_cast<std::int64_t>(i);
      const int rank = it.field.dims().rank;
      Compressor& codec = codec_for(it.codec, rank);
      const std::string layer = codec_layer(it.codec);
      const bool staged = layer != "pipeline";  // workers run concurrently
      if (op.kind == Kind::kCompress) {
        std::vector<std::uint8_t> stream;
        const auto call = [&] { stream = codec.compress(it.field, kBound); };
        const int id = staged
            ? tr.time_staged(layer + ".compress", parent, req, call)
            : tr.time(layer + ".compress", parent, req, call);
        crc_span(tr, id, req, stream);
        streams[op.item] = stream;
        protocol_spans(
            tr, parent, req,
            [&] {
              return svc::encode_compress_request(
                  {it.codec, kBound, it.field.dims(), raw_bytes(it.field)});
            },
            svc::parse_compress_request,
            [&] { return svc::encode_compress_response({it.abs_eb, stream}); },
            svc::parse_compress_response);
        if (layer == "pipeline") {
          parallel_ms += tr.spans()[static_cast<std::size_t>(id)].dur_ms();
          Compressor& serial = codec_for("SZ2.1", rank);
          serial_ms += tr.spans()[static_cast<std::size_t>(tr.time(
                                      "pipeline.serial_ref", -1, -1, [&] {
                                        (void)serial.compress(it.field, kBound);
                                      }))]
                           .dur_ms();
        }
      } else {
        const std::vector<std::uint8_t> stream = std::move(streams[op.item]);
        streams.erase(op.item);
        Field out;
        const auto call = [&] { out = codec.decompress(stream).value(); };
        const int id = staged
            ? tr.time_staged(layer + ".decompress", parent, req, call)
            : tr.time(layer + ".decompress", parent, req, call);
        crc_span(tr, id, req, stream);
        protocol_spans(
            tr, parent, req,
            [&] {
              return svc::encode_decompress_request({it.codec, stream});
            },
            svc::parse_decompress_request,
            [&] {
              return svc::encode_decompress_response(
                  {out.dims(), raw_bytes(out)});
            },
            svc::parse_decompress_response);
      }
    }
    m["pipeline.speedup"] = parallel_ms > 0 ? serial_ms / parallel_ms : 0;
  }

 private:
  static constexpr const char* kCodecs[] = {"SZ2.1", "SZinterp", "ZFP",
                                            "parallel:SZ2.1"};
  static constexpr std::size_t kRound = 2 * std::size(kCodecs);
  static constexpr ErrorBound kBound = ErrorBound::Rel(1e-3);

  struct Item {
    std::string codec;
    Field field;
    std::vector<std::uint8_t> stream;
    double abs_eb = 0;
  };
  std::vector<Item> items_;
};

// --------------------------------------------------------- archive-aesz --

class ArchiveAesz final : public Workload {
 public:
  // Pipelined batches (of kDepth fields) per measured second.
  static constexpr double kBatchesPerSecond = 1.0;
  static constexpr std::size_t kDepth = 8;

  ArchiveAesz(std::uint64_t seed, double seconds, std::string model)
      : model_(std::move(model)) {
    const auto batches = static_cast<std::size_t>(
        std::max(1.0, std::round(seconds * kBatchesPerSecond)));
    fields_.resize(batches * kDepth);
    parallel_for(fields_.size(), [&](std::size_t i) {
      fields_[i] = synth::cesm_cldhgh(256, 512, 100 + static_cast<int>(i),
                                      mix(seed, 1000 + i));
    });
    streams_.resize(fields_.size());
    abs_eb_.resize(fields_.size());
  }

  void warm(const Clients& c) override {
    const Field w = synth::cesm_cldhgh(64, 128, 1, 77);
    if (!c[0]->compress("AE-SZ", w, kBound).ok())
      die("warm AE-SZ compress failed (model not served?)");
  }

  /// Batch by batch: one pipelined compress_many of kDepth fields, then
  /// their decompresses back to back (see ArchiveSz::run).
  RunResult run(const Clients& c) override {
    RunResult res;
    const PeakRss peak;
    const std::int64_t start = now_ns();
    for (std::size_t b = 0; b * kDepth < fields_.size(); ++b) {
      std::vector<const Field*> batch;
      for (std::size_t k = 0; k < kDepth; ++k)
        batch.push_back(&fields_[b * kDepth + k]);
      res.ops.push_back(timed(Kind::kCompress, 0, b, b, [&](OpRec& r) {
        auto out = c[0]->compress_many("AE-SZ", batch, kBound);
        r.t1 = now_ns();
        r.requests = kDepth;
        for (std::size_t k = 0; k < kDepth; ++k) {
          const std::size_t i = b * kDepth + k;
          r.bytes += field_bytes(fields_[i]);
          if (k >= out.size() || !out[k].ok()) { ++r.failed; continue; }
          streams_[i] = std::move(out[k]->stream);
          abs_eb_[i] = out[k]->abs_eb;
          r.stored += streams_[i].size();
        }
      }));
      for (std::size_t i = b * kDepth; i < (b + 1) * kDepth; ++i) {
        if (streams_[i].empty()) continue;
        res.ops.push_back(timed(Kind::kDecompress, 0, i, b, [&](OpRec& r) {
          auto out = c[0]->decompress(streams_[i], "AE-SZ");
          r.t1 = now_ns();
          r.bytes = field_bytes(fields_[i]);
          if (!out.ok()) { r.failed = 1; return; }
          res.checks.add(check(fields_[i], *out, abs_eb_[i]));
        }));
        std::vector<std::uint8_t>().swap(streams_[i]);
      }
    }
    res.wall_s = to_ms(now_ns() - start) * 1e-3;
    res.peak_rss_mb = peak.mb();
    return res;
  }

  void self_check() override {
    // The model must load, and the AE must win blocks at this bound, or
    // decompress never reaches the nn decoder and the workload measures
    // plain Lorenzo.
    AESZ& codec = local();
    (void)codec.compress(fields_.front(), kBound);
    if (codec.last_stats().blocks_ae == 0)
      die("the trained model wins no AE-SZ blocks at rel:1e-2");
  }

  void replay(const RunResult& res, const std::vector<int>& req_span,
              Tracer& tr, Metrics& m) override {
    AESZ& codec = local();
    std::vector<std::vector<std::uint8_t>> streams(fields_.size());
    for (std::size_t i = 0; i < res.ops.size(); ++i) {
      const OpRec& op = res.ops[i];
      if (op.failed) continue;
      const int parent = req_span[i];
      const auto req = static_cast<std::int64_t>(i);
      if (op.kind == Kind::kCompress) {
        std::vector<const Field*> batch;
        for (std::size_t k = 0; k < kDepth; ++k)
          batch.push_back(&fields_[op.item * kDepth + k]);
        std::vector<std::vector<std::uint8_t>> out;
        const int id = tr.time_staged("core.compress", parent, req, [&] {
          out = codec.compress_batch(
              batch, std::vector<ErrorBound>(kDepth, kBound));
        });
        for (std::size_t k = 0; k < kDepth; ++k) {
          const std::size_t fi = op.item * kDepth + k;
          crc_span(tr, id, req, out[k]);
          streams[fi] = out[k];
          protocol_spans(
              tr, parent, req,
              [&] {
                return svc::encode_compress_request(
                    {"AE-SZ", kBound, fields_[fi].dims(),
                     raw_bytes(fields_[fi])});
              },
              svc::parse_compress_request,
              [&] {
                return svc::encode_compress_response({abs_eb_[fi], out[k]});
              },
              svc::parse_compress_response);
        }
      } else {
        Field out;
        const int id = tr.time_staged("core.decompress", parent, req, [&] {
          out = codec.decompress(streams[op.item]).value();
        });
        crc_span(tr, id, req, streams[op.item]);
        protocol_spans(
            tr, parent, req,
            [&] {
              return svc::encode_decompress_request(
                  {"AE-SZ", streams[op.item]});
            },
            svc::parse_decompress_request,
            [&] {
              return svc::encode_decompress_response(
                  {out.dims(), raw_bytes(out)});
            },
            svc::parse_decompress_response);
      }
    }
    // Selection counts need per-field stats, which compress_batch keeps
    // only for its last field: one solo compress per field, untimed.
    std::size_t ae = 0, total = 0, latent = 0, stored = 0;
    for (const Field& f : fields_) {
      const auto s = codec.compress(f, kBound);
      ae += codec.last_stats().blocks_ae;
      total += codec.last_stats().blocks_total;
      latent += codec.last_stats().latent_stream_bytes;
      stored += s.size();
    }
    m["core.ae_block_share"] =
        total ? static_cast<double>(ae) / static_cast<double>(total) : 0;
    m["core.latent_bytes_share"] =
        stored ? static_cast<double>(latent) / static_cast<double>(stored) : 0;
  }

 private:
  static constexpr ErrorBound kBound = ErrorBound::Rel(1e-2);

  AESZ& local() {
    if (!local_) {
      local_ = std::make_unique<AESZ>(model_zoo::options_for("CESM-CLDHGH"),
                                      /*seed=*/1);
      try {
        local_->load_model(model_);
      } catch (const Error& e) {
        die("cannot load the AE-SZ model " + model_ + ": " + e.what());
      }
    }
    return *local_;
  }

  std::string model_;
  std::unique_ptr<AESZ> local_;
  std::vector<Field> fields_;
  std::vector<std::vector<std::uint8_t>> streams_;
  std::vector<double> abs_eb_;
};

// ----------------------------------------------------------- interactive --

class Interactive final : public Workload {
 public:
  // Rounds per connection per measured second; one round is an append,
  // a preview, a read and another preview.
  static constexpr double kRoundsPerSecond = 6.8;
  static constexpr std::size_t kConns = 2;
  static constexpr std::size_t kOpsPerRound = 4;
  // Keyframe interval of each stream session. The rates are taken per
  // block of kGop rounds of one connection, so every sample holds one
  // keyframe cycle of appends (the same op mix).
  static constexpr std::size_t kGop = 8;
  static constexpr std::size_t kCatalog = 16;
  static constexpr std::size_t kRows = 192, kCols = 384;

  Interactive(std::uint64_t seed, double seconds) {
    const auto rounds = kGop * static_cast<std::size_t>(std::max(
                                   1.0, std::round(seconds * kRoundsPerSecond /
                                                   static_cast<double>(kGop))));
    catalog_.resize(kCatalog);
    parallel_for(kCatalog, [&](std::size_t k) {
      Entry& e = catalog_[k];
      e.field = synth::cesm_cldhgh(kRows, kCols, 300 + static_cast<int>(k),
                                   mix(seed, 5000 + k));
      // Inner SZ2.1, default 3-layer ladder: what progressive:SZ2.1 stores.
      e.stream = progressive::ProgressiveWriter().encode(e.field, kBound);
    });
    // Zipf(1.1) popularity over the catalog.
    std::vector<double> cdf(kCatalog);
    double acc = 0;
    for (std::size_t k = 0; k < kCatalog; ++k)
      cdf[k] = acc += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    for (double& v : cdf) v /= acc;
    conns_.resize(kConns);
    for (std::size_t a = 0; a < kConns; ++a) {
      Conn& c = conns_[a];
      Rng rng(mix(seed, 20 + a));
      const auto zipf = [&] {
        return static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), rng.uniform()) -
            cdf.begin());
      };
      for (std::size_t t = 0; t < rounds; ++t) {
        const Plan append{Kind::kAppend, t};
        const Plan preview{Kind::kPreview, zipf()};
        const Plan read{Kind::kRead, static_cast<std::size_t>(
                                         rng.uniform() *
                                         static_cast<double>(t + 1))};
        const Plan preview2{Kind::kPreview, zipf()};
        // The second analyst runs its round one op later, so each append
        // overlaps the other connection's preview instead of its append.
        if (a == 0)
          c.plan.insert(c.plan.end(), {append, preview, read, preview2});
        else
          c.plan.insert(c.plan.end(), {preview, append, preview2, read});
      }
      // Successive timesteps of one simulated run per analyst.
      c.steps.resize(rounds);
      parallel_for(rounds, [&](std::size_t t) {
        c.steps[t] = synth::cesm_freqsh(kRows, kCols, 100 + static_cast<int>(t),
                                        mix(seed, 10 + a));
      });
      c.abs_eb.resize(rounds);
    }
  }

  std::size_t connections() const override { return kConns; }

  void warm(const Clients& c) override {
    const Field w = synth::cesm_cldhgh(64, 128, 1, 77);
    for (svc::Client* cl : c) {
      if (!cl->compress("SZ2.1", w, kBound).ok()) die("warm compress failed");
      if (!cl->read_partial(catalog_[0].stream, catalog_[0].stream.size() / 4)
               .ok())
        die("warm read_partial failed");
    }
  }

  RunResult run(const Clients& clients) override {
    RunResult res;
    std::vector<svc::Client::Stream> streams;
    for (svc::Client* cl : clients) {
      auto stream = cl->open_stream("SZ2.1", Dims(kRows, kCols), kBound, kGop);
      if (!stream.ok()) die("open_stream: " + stream.status().str());
      streams.push_back(std::move(stream).value());
    }
    std::vector<std::vector<OpRec>> per(kConns);
    std::vector<double> wall(kConns, 0);
    std::vector<CheckCounts> checks(kConns);
    std::barrier round(static_cast<std::ptrdiff_t>(kConns));
    const PeakRss peak;
    std::vector<std::thread> threads;
    for (std::size_t a = 0; a < kConns; ++a)
      threads.emplace_back([&, a] {
        Conn& c = conns_[a];
        const std::int64_t start = now_ns();
        for (std::size_t p = 0; p < c.plan.size(); ++p) {
          // Rounds start together on both connections, so the ops of a
          // round meet the same concurrency in every round and every run.
          if (p % kOpsPerRound == 0) round.arrive_and_wait();
          per[a].push_back(step(streams[a], *clients[a], c,
                                static_cast<int>(a), p, checks[a]));
        }
        wall[a] = to_ms(now_ns() - start) * 1e-3;
      });
    for (auto& t : threads) t.join();
    // Closing ships each whole artifact back; that is not part of the ops.
    res.peak_rss_mb = peak.mb();
    for (auto& s : streams)
      if (!s.close().ok()) die("close_stream failed");
    for (auto& v : per) res.ops.insert(res.ops.end(), v.begin(), v.end());
    res.wall_s = std::accumulate(wall.begin(), wall.end(), 0.0);
    for (const CheckCounts& cc : checks) res.checks.merge(cc);
    return res;
  }

  void replay(const RunResult& res, const std::vector<int>& req_span,
              Tracer& tr, Metrics& m) override {
    std::vector<std::unique_ptr<temporal::TemporalWriter>> writers;
    for (std::size_t a = 0; a < kConns; ++a)
      writers.push_back(std::make_unique<temporal::TemporalWriter>(
          Dims(kRows, kCols), kBound, temporal::TemporalWriter::Options{}));
    double prefix = 0, full = 0;
    std::size_t residual = 0, appends = 0;
    for (std::size_t i = 0; i < res.ops.size(); ++i) {
      const OpRec& op = res.ops[i];
      if (op.failed) continue;
      const Conn& c = conns_[static_cast<std::size_t>(op.conn)];
      temporal::TemporalWriter& w = *writers[static_cast<std::size_t>(op.conn)];
      const Plan& p = c.plan[op.item];
      const int parent = req_span[i];
      const auto req = static_cast<std::int64_t>(i);
      if (op.kind == Kind::kAppend) {
        const Field& f = c.steps[p.arg];
        temporal::TemporalWriter::AppendResult ar;
        const int id = tr.time_staged("temporal.append", parent, req,
                                      [&] { ar = w.append(f); });
        crc_span(tr, id, req,
                 w.body().subspan(w.body().size() - ar.stored_bytes));
        ++appends;
        residual += ar.mode == temporal::kModeResidual;
        protocol_spans(
            tr, parent, req,
            [&] {
              return svc::encode_append_timestep_request({1, raw_bytes(f)});
            },
            svc::parse_append_timestep_request,
            [&] {
              return svc::encode_append_timestep_response(
                  {ar.timestep, ar.mode == temporal::kModeResidual, ar.abs_eb,
                   ar.stored_bytes});
            },
            svc::parse_append_timestep_response);
      } else if (op.kind == Kind::kRead) {
        Field out;
        tr.time_staged("temporal.read", parent, req,
                       [&] { out = w.read(p.arg).value(); });
        protocol_spans(
            tr, parent, req,
            [&] { return svc::encode_read_timestep_request({1, p.arg}); },
            svc::parse_read_timestep_request,
            [&] {
              return svc::encode_read_timestep_response(
                  {out.dims(), raw_bytes(out)});
            },
            svc::parse_read_timestep_response);
      } else {
        const auto& stream = catalog_[p.arg].stream;
        const std::size_t budget = stream.size() / 4;
        progressive::TruncateResult t;
        tr.time("progressive.truncate", parent, req, [&] {
          t = progressive::truncate_to_bytes(stream, budget).value();
        });
        const auto served = std::span<const std::uint8_t>(stream).first(t.bytes);
        crc_span(tr, parent, req, served);
        prefix += static_cast<double>(t.bytes);
        full += static_cast<double>(stream.size());
        protocol_spans(
            tr, parent, req,
            [&] {
              return svc::encode_read_partial_request(
                  {stream, svc::PartialMode::kByteBudget, budget, {}});
            },
            svc::parse_read_partial_request,
            [&] {
              return svc::encode_read_partial_response(
                  {t.abs_eb, t.layers, t.total_layers, served});
            },
            svc::parse_read_partial_response);
      }
    }
    m["progressive.prefix_share"] = full > 0 ? prefix / full : 0;
    m["temporal.residual_share"] =
        appends ? static_cast<double>(residual) / static_cast<double>(appends)
                : 0;
    // The catalog encode happens before timing; time it here once.
    progressive::ProgressiveWriter writer;
    for (const Entry& e : catalog_)
      tr.time_staged("progressive.encode", -1, -1,
                     [&] { (void)writer.encode(e.field, kBound); });
  }

 private:
  static constexpr ErrorBound kBound = ErrorBound::Rel(1e-3);

  struct Entry {
    Field field;
    std::vector<std::uint8_t> stream;
  };
  struct Plan {
    Kind kind;
    std::size_t arg;  // timestep (append/read) or catalog index (preview)
  };
  struct Conn {
    std::vector<Field> steps;
    std::vector<Plan> plan;
    std::vector<double> abs_eb;  // per stored timestep, from the server
  };

  OpRec step(svc::Client::Stream& stream, svc::Client& cl, Conn& c, int a,
             std::size_t p, CheckCounts& checks) {
    const Plan& plan = c.plan[p];
    return timed(plan.kind, a, p,
                 static_cast<std::size_t>(a) * 1000000 +
                     p / (kOpsPerRound * kGop),
                 [&](OpRec& r) {
      switch (plan.kind) {
        case Kind::kAppend: {
          const Field& f = c.steps[plan.arg];
          auto out = stream.append(f);
          r.t1 = now_ns();
          r.bytes = field_bytes(f);
          if (!out.ok() || out->timestep != plan.arg) { r.failed = 1; return; }
          c.abs_eb[plan.arg] = out->abs_eb;
          r.stored = out->stored_bytes;
          break;
        }
        case Kind::kRead: {
          auto out = stream.read_timestep(plan.arg);
          r.t1 = now_ns();
          r.bytes = field_bytes(c.steps[plan.arg]);
          if (!out.ok()) { r.failed = 1; return; }
          checks.add(check(c.steps[plan.arg], *out, c.abs_eb[plan.arg],
                            /*float32_ulp=*/true));
          break;
        }
        default: {
          const Entry& e = catalog_[plan.arg];
          auto out = cl.read_partial(e.stream, e.stream.size() / 4);
          if (!out.ok()) { r.failed = 1; return; }
          r.d0 = now_ns();
          auto reader = progressive::ProgressiveReader::open(out->stream);
          Expected<Field> f = reader.ok()
              ? (*reader)->read((*reader)->present() - 1)
              : Expected<Field>(reader.status());
          r.d1 = r.t1 = now_ns();
          r.bytes = field_bytes(e.field);
          if (!f.ok()) { r.failed = 1; return; }
          const double recorded =
              (*reader)->bound_after((*reader)->present() - 1);
          checks.add(recorded == out->abs_eb ? check(e.field, *f, recorded)
                                             : Verdict::kViolation);
        }
      }
    });
  }

  std::vector<Entry> catalog_;
  std::vector<Conn> conns_;
};

// ----------------------------------------------------------- environment --

/// One fresh service stack: Server, EventServer on an ephemeral loopback
/// port with its loop thread, and one connected Client per connection.
/// Clients connect through TcpTransport::connect with no socket options
/// of their own, exactly as aesz_client does.
class Env {
 public:
  Env(const svc::Server::Options& opt, std::size_t conns) {
    server_ = std::make_unique<svc::Server>(opt);
    auto listener = svc::TcpListener::bind(0);
    if (!listener.ok()) die("bind: " + listener.status().str());
    listener_ = std::move(listener).value();
    events_ = std::make_unique<svc::EventServer>(*server_, *listener_,
                                                 svc::EventServer::Options{});
    loop_ = std::thread([this] { events_->run(); });
    for (std::size_t i = 0; i < conns; ++i) {
      auto t = svc::TcpTransport::connect("127.0.0.1", listener_->port());
      if (!t.ok()) die("connect: " + t.status().str());
      transports_.push_back(std::move(t).value());
      clients_.push_back(std::make_unique<svc::Client>(*transports_.back()));
    }
  }

  ~Env() {
    clients_.clear();
    transports_.clear();
    events_->stop();
    loop_.join();
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  Clients clients() const {
    Clients out;
    for (const auto& c : clients_) out.push_back(c.get());
    return out;
  }

 private:
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::TcpListener> listener_;
  std::unique_ptr<svc::EventServer> events_;
  std::thread loop_;
  std::vector<std::unique_ptr<svc::TcpTransport>> transports_;
  std::vector<std::unique_ptr<svc::Client>> clients_;
};

// -------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

void print_rows(const std::string& title, const std::vector<Metric>& rows) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : rows)
    std::printf("  %-34s %14.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& rows) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i)
    o << (i ? ", " : "") << '"' << rows[i].name << "\": {\"value\": "
      << rows[i].value << ", \"unit\": \"" << rows[i].unit << "\"}";
  o << "}}";
  return o.str();
}

/// Human-readable latency rows per op kind (not part of the result).
void print_latency_rows(const RunResult& res) {
  std::printf("client latency by op kind\n");
  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> v;
    for (const OpRec& op : res.ops)
      if (static_cast<int>(op.kind) == k && !op.failed)
        v.push_back(to_ms(op.t1 - op.t0));
    if (v.empty()) continue;
    std::printf("  %-12s p10 %9.3f  p50 %9.3f  p90 %9.3f  max %9.3f ms (n=%zu)\n",
                kKindNames[k], percentile(v, 0.1), percentile(v, 0.5),
                percentile(v, 0.9), percentile(v, 1.0), v.size());
  }
}

struct Totals {
  std::size_t attempted = 0, failed = 0, stored = 0;
  double orig = 0;
};

Totals totals(const RunResult& res) {
  Totals t;
  for (const OpRec& op : res.ops) {
    t.attempted += op.requests;
    t.failed += op.failed;
    if (is_write(op.kind)) {
      t.stored += op.stored;
      t.orig += op.bytes;
    }
  }
  return t;
}

/// MB/s of the ops of one class (writes or reads): the bytes of each
/// group of the op sequence (an archive round or batch; on interactive, a
/// block of kGop rounds of one connection) over its summed round trips,
/// median over the groups. Every group carries the same op mix, so the
/// median is robust to a transient stall of the machine; the sample count
/// is the groups.
std::pair<double, std::size_t> mb_per_s(const RunResult& res, bool writes) {
  std::map<std::size_t, std::pair<double, double>> groups;  // bytes, ms
  for (const OpRec& op : res.ops) {
    if (op.failed || is_write(op.kind) != writes) continue;
    auto& [bytes, ms] = groups[op.group];
    bytes += op.bytes;
    ms += to_ms(op.t1 - op.t0);
  }
  std::vector<double> rates;
  for (const auto& [g, bm] : groups)
    if (bm.second > 0) rates.push_back(bm.first / (1024.0 * 1024.0) /
                                       (bm.second * 1e-3));
  return {median(rates), rates.size()};
}

std::vector<Metric> end_to_end(const RunResult& res, double setup_s,
                               std::size_t setups) {
  const Totals t = totals(res);
  const auto [write_mb_s, wn] = mb_per_s(res, true);
  const auto [read_mb_s, rn] = mb_per_s(res, false);
  return {
      {"setup_s", setup_s, "s", setups},
      {"write_mb_s", write_mb_s, "MB/s", wn},
      {"read_mb_s", read_mb_s, "MB/s", rn},
      {"compression_ratio",
       t.stored ? t.orig / static_cast<double>(t.stored) : 0, "ratio", wn},
      {"peak_rss_mb", res.peak_rss_mb, "MB", 1},
      {"success_share",
       t.attempted ? 1.0 - static_cast<double>(t.failed) /
                               static_cast<double>(t.attempted)
                   : 0,
       "share", t.attempted},
      {"in_bound_share",
       res.checks.checked
           ? 1.0 - static_cast<double>(res.checks.ulp_excess) /
                       static_cast<double>(res.checks.checked)
           : 0,
       "share", res.checks.checked},
  };
}

/// Per-layer metrics of a traced run: span roll-ups, server counters, and
/// the workload's own counts. `trace_s` is the time spent building spans
/// and replaying the run after it ended.
std::vector<Metric> per_layer(const RunResult& res, const Tracer& tr,
                              const Metrics& extra,
                              const svc::StatsResponse& stats,
                              double trace_s) {
  const CheckCounts& checks = res.checks;
  const std::vector<Span>& spans = tr.spans();
  const std::vector<double> self = tr.self_ms();
  std::map<std::string, double> sum_dur, sum_self;
  std::map<std::string, std::size_t> count;
  double counted_self = 0;
  std::vector<std::vector<double>> overhead(kKinds);
  std::size_t stalled = 0, requests = 0;
  std::map<std::string, double> outside;  // layer work outside requests
  std::map<std::string, std::size_t> outside_n;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.request < 0) {
      if (s.parent < 0) {
        outside[s.name] += s.dur_ms();
        ++outside_n[s.name];
      }
      continue;
    }
    sum_dur[s.name] += s.dur_ms();
    sum_self[s.name] += self[i];
    ++count[s.name];
    counted_self += self[i];
    if (s.parent < 0) {
      const auto k = static_cast<std::size_t>(
          res.ops[static_cast<std::size_t>(s.request)].kind);
      overhead[k].push_back(self[i]);
      ++requests;
      stalled += self[i] >= 30.0;
    }
  }
  const auto dur = [&](const std::string& n) { return sum_dur[n]; };
  const auto n_of = [&](const std::string& n) { return count[n]; };
  const auto get = [&](const std::string& n) {
    auto it = extra.find(n);
    return it == extra.end() ? 0.0 : it->second;
  };
  const double crc = dur("crc.seal");
  double codec_ms = 0;
  for (const char* n :
       {"sz.compress", "sz.decompress", "zfp.compress", "zfp.decompress",
        "pipeline.compress", "pipeline.decompress", "core.compress",
        "core.decompress", "temporal.append", "temporal.read",
        "progressive.truncate", "progressive.read"})
    codec_ms += dur(n);
  const double batches = static_cast<double>(stats.get("batch_executions"));
  std::vector<Metric> rows;
  // Client-visible latency per op kind; a p90 needs ten samples beyond
  // it, so it reads 0 below 100 samples.
  std::vector<std::vector<double>> latency(kKinds);
  for (const OpRec& op : res.ops)
    if (!op.failed)
      latency[static_cast<std::size_t>(op.kind)].push_back(to_ms(op.t1 - op.t0));
  for (int k = 0; k < kKinds; ++k) {
    const auto& v = latency[static_cast<std::size_t>(k)];
    const std::string kind = kKindNames[k];
    rows.push_back({"client." + kind + ".p50_ms", median(v), "ms", v.size()});
    rows.push_back({"client." + kind + ".p90_ms",
                    v.size() >= 100 ? percentile(v, 0.9) : 0, "ms", v.size()});
  }
  for (int k = 0; k < kKinds; ++k)
    rows.push_back({std::string("service.overhead_ms.") + kKindNames[k],
                    median(overhead[static_cast<std::size_t>(k)]), "ms",
                    overhead[static_cast<std::size_t>(k)].size()});
  std::vector<Metric> more = {
      {"service.stall_share",
       requests ? static_cast<double>(stalled) / static_cast<double>(requests)
                : 0,
       "share", requests},
      {"service.queue_wait_ms",
       static_cast<double>(stats.get("queue_wait_ns_p50")) * 1e-6, "ms",
       stats.get("queue_wait_ns_count")},
      {"service.batch_wait_ms",
       static_cast<double>(stats.get("batch_wait_ns_p50")) * 1e-6, "ms",
       stats.get("batch_wait_ns_count")},
      {"service.batch_size_mean",
       batches > 0 ? static_cast<double>(stats.get("batched_requests")) /
                         batches
                   : 0,
       "count", stats.get("batch_executions")},
      {"service.bytes_in", static_cast<double>(stats.get("bytes_in")), "bytes",
       stats.get("requests")},
      {"service.bytes_out", static_cast<double>(stats.get("bytes_out")),
       "bytes", stats.get("requests")},
      {"service.error_responses",
       static_cast<double>(stats.get("error_responses")), "count",
       stats.get("requests")},
      {"protocol.encode_ms", dur("protocol.encode"), "ms",
       n_of("protocol.encode")},
      {"protocol.parse_ms", dur("protocol.parse"), "ms",
       n_of("protocol.parse")},
      {"nn.inference_ms", dur("nn.inference"), "ms", n_of("nn.inference")},
      {"core.quantize_ms", dur("core.quantize"), "ms", n_of("core.quantize")},
      {"core.other_ms", sum_self["core.compress"], "ms",
       n_of("core.compress")},
      {"core.ae_block_share", get("core.ae_block_share"), "share",
       n_of("core.compress")},
      {"core.latent_bytes_share", get("core.latent_bytes_share"), "share",
       n_of("core.compress")},
      {"sz.predict_ms", dur("sz.predict"), "ms", n_of("sz.predict")},
      {"lossless.entropy_ms", dur("lossless.entropy"), "ms",
       n_of("lossless.entropy")},
      {"zfp.compress_ms", dur("zfp.compress"), "ms", n_of("zfp.compress")},
      {"zfp.decompress_ms", dur("zfp.decompress"), "ms",
       n_of("zfp.decompress")},
      {"pipeline.compress_ms", dur("pipeline.compress"), "ms",
       n_of("pipeline.compress")},
      {"pipeline.decompress_ms", dur("pipeline.decompress"), "ms",
       n_of("pipeline.decompress")},
      {"pipeline.speedup", get("pipeline.speedup"), "ratio",
       n_of("pipeline.compress")},
      {"progressive.encode_ms", outside["progressive.encode"], "ms",
       outside_n["progressive.encode"]},
      {"progressive.read_ms",
       dur("progressive.truncate") + dur("progressive.read"), "ms",
       n_of("progressive.read")},
      {"progressive.prefix_share", get("progressive.prefix_share"), "share",
       n_of("progressive.truncate")},
      {"temporal.append_ms", dur("temporal.append"), "ms",
       n_of("temporal.append")},
      {"temporal.read_ms", dur("temporal.read"), "ms", n_of("temporal.read")},
      {"temporal.residual_share", get("temporal.residual_share"), "share",
       n_of("temporal.append")},
      {"crc.seal_ms", crc, "ms", n_of("crc.seal")},
      {"crc.seal_share", codec_ms > 0 ? crc / codec_ms : 0, "share",
       n_of("crc.seal")},
      {"check.ulp_excess_share",
       checks.checked ? static_cast<double>(checks.ulp_excess) /
                            static_cast<double>(checks.checked)
                      : 0,
       "share", checks.checked},
      {"other_ms", res.wall_s * 1e3 - counted_self, "ms", requests},
      {"trace.overhead_share", res.wall_s > 0 ? trace_s / res.wall_s : 0,
       "share", 1},
  };
  rows.insert(rows.end(), more.begin(), more.end());
  return rows;
}

/// Request spans of a run: one per op, covering its client round trip,
/// plus the inline local-decode child of each preview.
std::vector<int> request_spans(const RunResult& res, Tracer& tr) {
  std::vector<int> ids(res.ops.size());
  for (std::size_t i = 0; i < res.ops.size(); ++i) {
    const OpRec& op = res.ops[i];
    const auto req = static_cast<std::int64_t>(i);
    ids[i] = tr.add(std::string("service.") +
                        kKindNames[static_cast<int>(op.kind)],
                    op.t0, op.t1, -1, req);
    if (op.d1 > op.d0) tr.add("progressive.read", op.d0, op.d1, ids[i], req);
  }
  return ids;
}

/// Fresh set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds,
                                        const std::string& model) {
  if (name == "archive-sz") return std::make_unique<ArchiveSz>(seed, seconds);
  if (name == "archive-aesz")
    return std::make_unique<ArchiveAesz>(seed, seconds, model);
  if (name == "interactive")
    return std::make_unique<Interactive>(seed, seconds);
  die("unknown workload '" + name +
      "' (archive-sz, archive-aesz, interactive)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliArgs args(argc, argv,
                 {"workload", "seed", "seconds", "trace", "workers",
                  "omp-threads", "model", "spans-out"});
    const std::string name = args.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
    const double seconds = args.get_double("seconds", 10);
    const bool trace = args.get_long("trace", 0) != 0;
    const std::string model = args.get("model", "");
    // The OpenMP runtime reads its team size from the environment before
    // main runs; insist it matches the configuration asked for.
    const char* omp = std::getenv("OMP_NUM_THREADS");
    if (!omp || std::string(omp) != args.get("omp-threads", "1"))
      die("OMP_NUM_THREADS must equal --omp-threads");
    if (model.empty() || !std::ifstream(model).good())
      die("model file not found: '" + model + "'");

    svc::Server::Options opt;
    opt.threads = static_cast<std::size_t>(args.get_long("workers", 2));
    opt.aesz_model = model;

    const std::int64_t gen0 = now_ns();
    std::unique_ptr<Workload> wl = make_workload(name, seed, seconds, model);
    const double gen_s = to_ms(now_ns() - gen0) * 1e-3;

    // Set-up: several fresh stacks, each warmed with one request per
    // codec; the median is the metric, the last stack serves the run.
    std::vector<double> setup_times;
    std::unique_ptr<Env> env;
    for (std::size_t k = 0; k < kSetups; ++k) {
      env.reset();
      const std::int64_t t0 = now_ns();
      env = std::make_unique<Env>(opt, wl->connections());
      wl->warm(env->clients());
      setup_times.push_back(to_ms(now_ns() - t0) * 1e-3);
    }

    RunResult res = wl->run(env->clients());
    wl->self_check();
    const CheckCounts& checks = res.checks;

    std::vector<Metric> rows;
    if (!trace) {
      rows = end_to_end(res, median(setup_times), setup_times.size());
      print_rows("end-to-end (" + name + ")", rows);
      print_latency_rows(res);
    } else {
      // Tracing happens after the run: request spans from its op records,
      // then the layer replay of its inputs. Its cost is that time.
      auto stats = env->clients()[0]->stats();
      if (!stats.ok()) die("stats: " + stats.status().str());
      env.reset();
      const std::int64_t t0 = now_ns();
      Tracer tr;
      const std::vector<int> req = request_spans(res, tr);
      Metrics extra;
      wl->replay(res, req, tr, extra);
      const double trace_s = to_ms(now_ns() - t0) * 1e-3;
      rows = per_layer(res, tr, extra, *stats, trace_s);
      print_rows("per-layer (" + name + ", traced)", rows);
      const std::string spans_out = args.get("spans-out", "");
      if (!spans_out.empty()) tr.write_jsonl(spans_out);
    }
    env.reset();

    const Totals t = totals(res);
    std::printf("detail {\"ops\": %zu, \"attempted\": %zu, \"stored_bytes\": "
                "%zu, \"original_bytes\": %.0f, \"gen_s\": %.3f, \"wall_s\": %.3f, "
                "\"checked\": %zu, \"ulp_excess\": %zu, \"violations\": %zu}\n",
                res.ops.size(), t.attempted, t.stored, t.orig, gen_s, res.wall_s,
                checks.checked, checks.ulp_excess, checks.violations);
    const bool correct = checks.violations == 0;
    std::printf("%s\n",
                result_json(correct, t.attempted, t.failed, rows).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }
}
