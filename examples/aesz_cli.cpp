// aesz_cli — command-line front end for the compressor zoo on raw
// single-precision files (SDRBench layout). The tool a downstream user
// would actually script against.
//
// Subcommands:
//   train    --field <table6-name> --dims AxB[xC] --out model.bin  files...
//   compress --codec NAME --eb MODE:VALUE --dims AxB[xC] --out out.bin
//            [--field <name> --model model.bin] [--threads N --chunk N]
//            input.f32
//   decompress [--codec NAME | auto-detected] --out recon.f32
//            [--field <name> --model model.bin] [--threads N]  data.aesz
//   assess   --dims AxB[xC]  original.f32 reconstructed.f32
//   list-codecs
//
// --codec defaults to AE-SZ (which needs --model); every other registered
// codec works without a model. --eb accepts abs:V, rel:V, psnr:V, or a
// bare number (value-range-relative, the paper's ε).
//
// --threads N runs the sharded parallel pipeline (src/pipeline/): the
// field is split into slabs along the slowest axis, compressed
// concurrently (one codec instance per worker), and written as a
// multi-chunk container stream. --chunk N sets the slab thickness in
// axis-0 planes (default: ~1 MiB slabs, from the dims alone so the
// container bytes never depend on the thread count). --threads 0 means
// hardware concurrency. Equivalent: --codec parallel:<NAME>. Container
// streams are auto-detected on decompress.
//
// Synthetic smoke run (no files needed):
//   aesz_cli demo

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>

#include "core/aesz.hpp"
#include "core/model_zoo.hpp"
#include "data/synth.hpp"
#include "format/container.hpp"
#include "metrics/assessment.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "temporal/temporal.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"

namespace {

using namespace aesz;
using tool::parse_dims;
using tool::read_file;
using tool::write_file;

int usage() {
  std::printf(
      "usage:\n"
      "  aesz_cli train --field NAME --dims AxB[xC] --out model.bin f...\n"
      "  aesz_cli compress --codec NAME --eb MODE:VALUE --dims AxB[xC]\n"
      "           [--field NAME --model m.bin] [--threads N --chunk N]\n"
      "           [--verify] --out out.bin input.f32\n"
      "  aesz_cli decompress [--codec NAME] [--field NAME --model m.bin]\n"
      "           [--threads N] --out recon.f32 in\n"
      "  aesz_cli assess --dims AxB[xC] original.f32 reconstructed.f32\n"
      "  aesz_cli list-codecs\n"
      "  aesz_cli demo\n"
      "--eb modes: abs:V | rel:V | psnr:V (bare number = rel)\n"
      "--threads N: sharded parallel pipeline (0 = all cores);\n"
      "             --chunk N sets slab thickness in axis-0 planes\n"
      "--verify: decompress in memory after compress, print max abs error\n"
      "          vs the resolved bound, exit non-zero on a violation\n"
      "--append: temporal mode — each input file is one timestep appended\n"
      "          to the AETC stream at --out (created if absent, extended\n"
      "          if present; --recover accepts a truncated tail). Knobs:\n"
      "          --gop N (keyframe cadence, default 8), --mode\n"
      "          auto|intra|residual (default auto)\n"
      "--sync:   durable append — fsync the record body before writing the\n"
      "          footer index (a crash leaves a torn tail --recover fixes,\n"
      "          never a footer claiming records the page cache lost)\n"
      "--timestep N: decompress one timestep of an AETC stream (default 0)\n"
      "--progressive: layered AEPR output — every layer prefix decodes at a\n"
      "          recorded looser bound, the full stream at the exact bound.\n"
      "          --layers L sets the ladder depth (default 3)\n"
      "--budget N | --bound MODE:V: partial decompress of an AEPR stream —\n"
      "          the largest prefix fitting N bytes / the smallest prefix\n"
      "          meeting the bound (achieved bound printed)\n"
      "fields: ");
  for (const auto& f : model_zoo::known_fields())
    std::printf("%s ", f.c_str());
  std::printf("\n");
  return 2;
}

/// --sync persistence: body, fsync, footer, fsync. Ordering is the whole
/// point — the footer index only becomes durable after every record it
/// advertises already is, so no crash can produce a well-formed artifact
/// that claims records the page cache lost. Throws aesz::Error(kIoError)
/// on any syscall failure (ENOSPC included).
void write_file_synced(const std::string& path,
                       std::span<const std::uint8_t> body,
                       std::span<const std::uint8_t> footer) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  AESZ_CHECK_MSG(fd >= 0, "cannot open " + path + " for writing");
  const auto write_all = [&](std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (w < 0) {
        ::close(fd);
        throw Error(ErrCode::kIoError, "short write to " + path);
      }
      off += static_cast<std::size_t>(w);
    }
  };
  write_all(body);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw Error(ErrCode::kIoError, "fsync failed for " + path);
  }
  write_all(footer);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw Error(ErrCode::kIoError, "fsync failed for " + path);
  }
  ::close(fd);
}

int cmd_list_codecs() {
  auto& reg = CodecRegistry::instance();
  std::printf("%-10s %-13s %s\n", "codec", "error-bounded", "description");
  for (const auto& name : reg.names()) {
    const CodecInfo* info = reg.find(name);
    std::printf("%-10s %-13s %s\n", name.c_str(),
                info->error_bounded ? "yes" : "no",
                info->description.c_str());
  }
  return 0;
}

bool is_aesz(const std::string& codec_name) {
  // Case-insensitive, like the registry — a mixed-case spelling must not
  // silently skip the model-loading path.
  std::string s = codec_name;
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s == "ae-sz" || s == "aesz";
}

/// Strip a leading "parallel:" (case-insensitive) from a codec name;
/// returns true when the prefix was present.
bool strip_parallel(std::string& name) {
  constexpr const char* kPrefix = "parallel:";
  constexpr std::size_t kLen = 9;
  if (name.size() <= kLen) return false;
  for (std::size_t i = 0; i < kLen; ++i)
    if (std::tolower(static_cast<unsigned char>(name[i])) != kPrefix[i])
      return false;
  name = name.substr(kLen);
  return true;
}

/// Inner-codec factory for the parallel pipeline: AE-SZ instances load the
/// trained model from --field/--model (one instance per worker), every
/// other codec comes from the registry.
pipeline::InnerFactory codec_factory(const CliArgs& args,
                                     const std::string& name) {
  if (is_aesz(name)) {
    const std::string field = args.get("field", "CESM-CLDHGH");
    const std::string model = args.get("model", "model.bin");
    return [field, model](int) -> std::unique_ptr<Compressor> {
      auto c = std::make_unique<AESZ>(model_zoo::options_for(field), 1);
      c->load_model(model);
      return c;
    };
  }
  return [name](int rank) -> std::unique_ptr<Compressor> {
    return CodecRegistry::instance().create(name, rank).value();
  };
}

/// Build the codec for compress/decompress. The sharded parallel pipeline
/// is selected by a `parallel:<name>` codec spelling, or (when
/// `wrap_on_flags` — the compress path) by --threads/--chunk alone; on
/// decompress the stream format decides, so --threads only sizes the pool.
std::unique_ptr<Compressor> build_codec(const CliArgs& args,
                                        std::string codec_name, int rank_hint,
                                        bool wrap_on_flags) {
  const bool prefixed = strip_parallel(codec_name);
  const bool parallel =
      prefixed || (wrap_on_flags && (args.has("threads") || args.has("chunk")));
  auto factory = codec_factory(args, codec_name);
  if (!parallel) return factory(rank_hint);
  pipeline::ParallelCompressor::Options opt;
  opt.inner = codec_name;
  opt.threads = static_cast<std::size_t>(args.get_long("threads", 0));
  opt.chunk_rows = static_cast<std::size_t>(args.get_long("chunk", 0));
  return std::make_unique<pipeline::ParallelCompressor>(opt, rank_hint,
                                                        std::move(factory));
}

int cmd_train(const CliArgs& args) {
  const std::string field = args.get("field", "CESM-CLDHGH");
  const Dims dims = parse_dims(args.get("dims", ""));
  AESZ codec(model_zoo::options_for(field), 1);
  std::vector<Field> fields;
  for (const auto& path : args.positional())
    fields.push_back(Field::load_raw(path, dims));
  AESZ_CHECK_MSG(!fields.empty(), "no training files given");
  std::vector<const Field*> ptrs;
  for (const auto& f : fields) ptrs.push_back(&f);
  TrainOptions topt;
  topt.epochs = static_cast<std::size_t>(args.get_long("epochs", 30));
  const auto rep = codec.train(ptrs, topt);
  std::printf("trained on %zu blocks, final loss %.5f, %.1fs\n", rep.samples,
              rep.epoch_loss.back(), rep.seconds);
  codec.save_model(args.get("out", "model.bin"));
  return 0;
}

/// compress --append: each positional input is one timestep appended to
/// the AETC stream at --out. A fresh file opens a new stream with the
/// requested codec/bound/gop; an existing file is extended (its header
/// pins those knobs — the flags only govern new streams). The whole
/// artifact is rewritten each run; --recover reopens a file whose tail
/// was torn by an interrupted append.
int cmd_compress_append(const CliArgs& args) {
  const std::string out_path = args.get("out", "out.aetc");
  AESZ_CHECK_MSG(!args.positional().empty(),
                 "need at least one input timestep file");
  temporal::TemporalWriter::Options wopt;
  wopt.inner = args.get("codec", "SZ2.1");
  wopt.gop = static_cast<std::size_t>(args.get_long("gop", 8));
  wopt.mode = temporal::parse_mode(args.get("mode", "auto")).value();
  wopt.factory = [&args](const std::string& name,
                         int rank) -> std::unique_ptr<Compressor> {
    return build_codec(args, name, rank, /*wrap_on_flags=*/false);
  };

  std::unique_ptr<temporal::TemporalWriter> writer;
  std::ifstream existing(out_path, std::ios::binary);
  if (existing.good()) {
    existing.close();
    const auto stream = read_file(out_path);
    auto opened = temporal::TemporalWriter::open(stream, wopt,
                                                 args.has("recover"));
    if (!opened.ok()) {
      std::fprintf(stderr, "error: cannot reopen %s: %s%s\n",
                   out_path.c_str(), opened.status().str().c_str(),
                   opened.status().code == ErrCode::kTruncated ||
                           opened.status().code == ErrCode::kCorruptStream
                       ? " (try --recover for a torn tail)"
                       : "");
      return 1;
    }
    writer = std::move(*opened);
    std::printf("extending %s: %zu timesteps, inner %s, gop %zu\n",
                out_path.c_str(), writer->timesteps(),
                writer->inner().c_str(), writer->gop());
  } else {
    const Dims dims = parse_dims(args.get("dims", ""));
    const ErrorBound eb =
        ErrorBound::parse(args.get("eb", "rel:1e-2")).value();
    writer = std::make_unique<temporal::TemporalWriter>(dims, eb,
                                                        std::move(wopt));
  }

  for (const auto& path : args.positional()) {
    const Field f = Field::load_raw(path, writer->dims());
    const auto res = writer->append(f);
    std::printf("  t=%zu %s: %zu bytes (bound %.6g)\n", res.timestep,
                res.mode == temporal::kModeResidual ? "residual" : "intra",
                res.stored_bytes, res.abs_eb);
  }
  const auto artifact = writer->bytes();
  if (args.has("sync"))
    write_file_synced(out_path, writer->body(), writer->footer());
  else
    write_file(out_path, artifact);
  std::printf("%s: %zu timesteps, %zu bytes (CR %.2f)\n", out_path.c_str(),
              writer->timesteps(), artifact.size(),
              metrics::compression_ratio(
                  writer->timesteps() * writer->dims().total(),
                  artifact.size()));
  return 0;
}

int cmd_compress(const CliArgs& args) {
  if (args.has("append")) return cmd_compress_append(args);
  const std::string codec_name = args.get("codec", "AE-SZ");
  const Dims dims = parse_dims(args.get("dims", ""));
  AESZ_CHECK_MSG(args.positional().size() == 1, "need one input file");
  Field f = Field::load_raw(args.positional()[0], dims);
  const ErrorBound eb = ErrorBound::parse(args.get("eb", "rel:1e-2")).value();

  std::unique_ptr<Compressor> codec;
  if (args.has("progressive")) {
    // Layered AEPR output: the inner codec (including parallel:<name>
    // spellings) rides the same factory as every other path.
    progressive::ProgressiveWriter::Options popt;
    popt.inner = codec_name;
    popt.layers = static_cast<std::size_t>(args.get_long(
        "layers", static_cast<long>(progressive::kDefaultLayers)));
    popt.factory = [&args](const std::string& name,
                           int rank) -> std::unique_ptr<Compressor> {
      return build_codec(args, name, rank, /*wrap_on_flags=*/false);
    };
    codec = std::make_unique<progressive::ProgressiveCompressor>(
        std::move(popt), dims.rank);
  } else {
    codec = build_codec(args, codec_name, dims.rank,
                        /*wrap_on_flags=*/true);
  }
  const auto stream = codec->compress(f, eb);
  write_file(args.get("out", "out.aesz"), stream);
  std::printf("%s: %zu -> %zu bytes (CR %.2f, bound %s)", codec->name().c_str(),
              f.size() * sizeof(float), stream.size(),
              metrics::compression_ratio(f.size(), stream.size()),
              eb.str().c_str());
  if (auto* par = dynamic_cast<pipeline::ParallelCompressor*>(codec.get()))
    std::printf(", %zu threads", par->threads());
  if (auto* ae = dynamic_cast<AESZ*>(codec.get()))
    std::printf(", %.1f%% AE blocks", 100.0 * ae->last_stats().ae_fraction());
  std::printf("\n");
  if (args.has("verify")) {
    // In-memory round-trip: decode what was just written and check the
    // reconstruction against the bound the encoder resolved.
    auto recon = codec->decompress(stream);
    if (!recon.ok()) {
      std::fprintf(stderr, "error: --verify decode failed: %s\n",
                   recon.status().str().c_str());
      return 1;
    }
    const double max_err = metrics::max_abs_err(f.values(), recon->values());
    const double tol = eb.absolute(f.value_range());
    const bool bounded = codec->error_bounded();
    const bool violated = bounded && max_err > tol * (1 + 1e-9);
    std::printf("verify: max abs error %.6g vs resolved bound %.6g — %s\n",
                max_err, tol,
                !bounded     ? "codec is not error-bounded, informational"
                : violated   ? "BOUND VIOLATED"
                             : "ok");
    if (violated) return 1;
  }
  return 0;
}

int cmd_decompress(const CliArgs& args) {
  AESZ_CHECK_MSG(args.positional().size() == 1, "need one input file");
  const auto stream = read_file(args.positional()[0]);
  const auto pre = format::peek(stream);
  const std::uint32_t container = pre.ok() ? pre->magic : 0;

  if (container == format::kAetc.magic) {
    // AETC temporal stream: decode the timestep --timestep asks for.
    const auto t = static_cast<std::size_t>(args.get_long("timestep", 0));
    auto reader = temporal::TemporalReader::open(
        stream, [&args](const std::string& name,
                        int rank) -> std::unique_ptr<Compressor> {
          return build_codec(args, name, rank, /*wrap_on_flags=*/false);
        });
    if (!reader.ok()) {
      std::fprintf(stderr, "error: %s\n", reader.status().str().c_str());
      return 1;
    }
    auto f = (*reader)->read(t);
    if (!f.ok()) {
      std::fprintf(stderr, "error: %s\n", f.status().str().c_str());
      return 1;
    }
    f->save_raw(args.get("out", "recon.f32"));
    std::printf("%s: timestep %zu of %zu (%s) -> %s\n",
                (*reader)->info().inner.c_str(), t, (*reader)->timesteps(),
                f->dims().str().c_str(), args.get("out", "recon.f32").c_str());
    return 0;
  }

  if (container == format::kAepr.magic) {
    // AEPR progressive stream: --budget/--bound pick a layer prefix
    // (table math, nothing decoded beyond the prefix); neither flag
    // decodes every layer present — the exact archival bound.
    std::span<const std::uint8_t> view = stream;
    if (args.has("budget") || args.has("bound")) {
      const auto cut =
          args.has("budget")
              ? progressive::truncate_to_bytes(
                    stream,
                    static_cast<std::size_t>(args.get_long("budget", 0)))
              : progressive::truncate_to_bound(
                    stream,
                    ErrorBound::parse(args.get("bound", "")).value());
      if (!cut.ok()) {
        std::fprintf(stderr, "error: %s\n", cut.status().str().c_str());
        return 1;
      }
      view = view.first(cut->bytes);
    }
    auto reader = progressive::ProgressiveReader::open(
        view, [&args](const std::string& name,
                      int rank) -> std::unique_ptr<Compressor> {
          return build_codec(args, name, rank, /*wrap_on_flags=*/false);
        });
    if (!reader.ok()) {
      std::fprintf(stderr, "error: %s\n", reader.status().str().c_str());
      return 1;
    }
    const std::size_t top = (*reader)->present() - 1;
    auto f = (*reader)->read(top);
    if (!f.ok()) {
      std::fprintf(stderr, "error: %s\n", f.status().str().c_str());
      return 1;
    }
    f->save_raw(args.get("out", "recon.f32"));
    std::printf(
        "progressive:%s: %zu of %zu layers (%zu of %zu bytes, achieved "
        "bound %.6g) -> %s\n",
        (*reader)->info().inner.c_str(), top + 1, (*reader)->layers(),
        view.size(), stream.size(), (*reader)->bound_after(top),
        args.get("out", "recon.f32").c_str());
    return 0;
  }

  // Pick the codec: explicit --codec wins, else sniff the stream magic
  // (container streams identify as parallel:<inner codec>).
  auto& reg = CodecRegistry::instance();
  std::string codec_name = args.get("codec", "");
  if (codec_name.empty()) {
    auto identified = reg.identify(stream);
    if (!identified.ok()) {
      std::fprintf(stderr, "error: %s\n", identified.status().str().c_str());
      return 1;
    }
    codec_name = *identified;
  }

  auto codec = build_codec(args, codec_name, /*rank_hint=*/2,
                           /*wrap_on_flags=*/false);
  auto result = codec->decompress(stream);
  if (!result.ok()) {
    std::fprintf(stderr, "error: cannot decompress with %s: %s\n",
                 codec_name.c_str(), result.status().str().c_str());
    return 1;
  }
  result->save_raw(args.get("out", "recon.f32"));
  std::printf("%s: decompressed %s -> %s\n", codec_name.c_str(),
              result->dims().str().c_str(),
              args.get("out", "recon.f32").c_str());
  return 0;
}

int cmd_assess(const CliArgs& args) {
  const Dims dims = parse_dims(args.get("dims", ""));
  AESZ_CHECK_MSG(args.positional().size() == 2,
                 "need original and reconstructed files");
  Field a = Field::load_raw(args.positional()[0], dims);
  Field b = Field::load_raw(args.positional()[1], dims);
  std::printf("%s", metrics::format(metrics::assess(a, b)).c_str());
  return 0;
}

int cmd_demo() {
  std::printf("demo: synthetic CESM field end to end through the CLI paths\n");
  const std::string model = "/tmp/aesz_cli_demo_model.bin";
  Field train = synth::cesm_cldhgh(96, 192, 10);
  Field test = synth::cesm_cldhgh(96, 192, 55);
  train.save_raw("/tmp/aesz_cli_train.f32");
  test.save_raw("/tmp/aesz_cli_test.f32");

  {
    const char* argv[] = {"aesz_cli", "--field", "CESM-CLDHGH", "--dims",
                          "96x192",   "--out",   model.c_str(), "--epochs",
                          "4",        "/tmp/aesz_cli_train.f32"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv),
                 {"field", "dims", "out", "epochs"});
    if (cmd_train(args)) return 1;
  }
  {
    const char* argv[] = {"aesz_cli",   "--field", "CESM-CLDHGH",
                          "--dims",     "96x192",  "--model",
                          model.c_str(), "--eb",   "1e-2",
                          "--out",      "/tmp/aesz_cli_demo.aesz",
                          "/tmp/aesz_cli_test.f32"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv),
                 {"field", "dims", "model", "eb", "out"});
    if (cmd_compress(args)) return 1;
  }
  {
    const char* argv[] = {"aesz_cli",    "--field", "CESM-CLDHGH",
                          "--model",     model.c_str(), "--out",
                          "/tmp/aesz_cli_recon.f32",
                          "/tmp/aesz_cli_demo.aesz"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"field", "model", "out"});
    if (cmd_decompress(args)) return 1;
  }
  {
    const char* argv[] = {"aesz_cli", "--dims", "96x192",
                          "/tmp/aesz_cli_test.f32",
                          "/tmp/aesz_cli_recon.f32"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"dims"});
    if (cmd_assess(args)) return 1;
  }
  {
    // Registry path: a model-free codec under an absolute bound, with the
    // in-memory round-trip check (--verify) on top...
    const char* argv[] = {"aesz_cli", "--codec",    "SZ2.1",
                          "--dims",   "96x192",     "--eb",
                          "abs:0.01", "--verify",
                          "--out",    "/tmp/aesz_cli_demo.sz21",
                          "/tmp/aesz_cli_test.f32"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"codec", "dims", "eb", "out"},
                 {"verify"});
    if (cmd_compress(args)) return 1;
  }
  {
    // ...decompressed with the codec auto-detected from the stream magic.
    const char* argv[] = {"aesz_cli", "--out",
                          "/tmp/aesz_cli_recon_sz21.f32",
                          "/tmp/aesz_cli_demo.sz21"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"out"});
    if (cmd_decompress(args)) return 1;
  }
  {
    // Parallel pipeline: sharded compression on a thread pool, written as
    // a multi-chunk container stream...
    const char* argv[] = {"aesz_cli", "--codec",   "SZ2.1",
                          "--dims",   "96x192",    "--eb",
                          "abs:0.01", "--threads", "2",
                          "--chunk",  "24",        "--out",
                          "/tmp/aesz_cli_demo.par",
                          "/tmp/aesz_cli_test.f32"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv),
                 {"codec", "dims", "eb", "threads", "chunk", "out"});
    if (cmd_compress(args)) return 1;
  }
  {
    // ...and auto-detected from the container magic on decompression.
    const char* argv[] = {"aesz_cli", "--out",
                          "/tmp/aesz_cli_recon_par.f32",
                          "/tmp/aesz_cli_demo.par"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"out"});
    if (cmd_decompress(args)) return 1;
  }
  {
    // Temporal stream: three advected snapshots appended into one AETC
    // artifact (t>0 stored as residuals vs the decoded predecessor)...
    std::remove("/tmp/aesz_cli_demo.aetc");
    for (int t = 0; t < 3; ++t) {
      const Field f = synth::cesm_cldhgh(96, 192, 55 + t);
      f.save_raw("/tmp/aesz_cli_step.f32");
      const char* argv[] = {"aesz_cli",  "--append", "--codec",
                            "SZ2.1",     "--dims",   "96x192",
                            "--eb",      "abs:0.01", "--gop",
                            "8",         "--out",    "/tmp/aesz_cli_demo.aetc",
                            "/tmp/aesz_cli_step.f32"};
      CliArgs args(static_cast<int>(std::size(argv)),
                   const_cast<char**>(argv),
                   {"codec", "dims", "eb", "gop", "out"}, {"append"});
      if (cmd_compress(args)) return 1;
    }
  }
  {
    // ...with any single timestep decodable on its own.
    const char* argv[] = {"aesz_cli", "--timestep", "2", "--out",
                          "/tmp/aesz_cli_recon_t2.f32",
                          "/tmp/aesz_cli_demo.aetc"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"timestep", "out"});
    if (cmd_decompress(args)) return 1;
  }
  {
    // Progressive stream: a 3-layer AEPR ladder whose every prefix is a
    // valid stream at a recorded looser bound...
    const char* argv[] = {"aesz_cli", "--codec", "SZ2.1",
                          "--dims",   "96x192",  "--eb",
                          "abs:0.01", "--progressive", "--layers", "3",
                          "--verify", "--out", "/tmp/aesz_cli_demo.aepr",
                          "/tmp/aesz_cli_test.f32"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv),
                 {"codec", "dims", "eb", "layers", "out"},
                 {"progressive", "verify"});
    if (cmd_compress(args)) return 1;
  }
  {
    // ...previewed under a byte budget (coarsest layer at minimum)...
    const char* argv[] = {"aesz_cli", "--budget", "2048", "--out",
                          "/tmp/aesz_cli_preview.f32",
                          "/tmp/aesz_cli_demo.aepr"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"budget", "out"});
    if (cmd_decompress(args)) return 1;
  }
  {
    // ...and decoded in full at the exact archival bound.
    const char* argv[] = {"aesz_cli", "--out",
                          "/tmp/aesz_cli_recon_aepr.f32",
                          "/tmp/aesz_cli_demo.aepr"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char**>(argv), {"out"});
    if (cmd_decompress(args)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const std::vector<std::string> keys{
        "field", "dims",    "out",   "model", "eb",   "epochs",
        "codec", "threads", "chunk", "gop",   "mode", "timestep",
        "layers", "budget", "bound"};
    CliArgs args(argc - 1, argv + 1, keys,
                 /*known_flags=*/{"verify", "append", "recover",
                                  "progressive", "sync"});
    if (cmd == "train") return cmd_train(args);
    if (cmd == "compress") return cmd_compress(args);
    if (cmd == "decompress") return cmd_decompress(args);
    if (cmd == "assess") return cmd_assess(args);
    if (cmd == "list-codecs") return cmd_list_codecs();
    if (cmd == "demo") return cmd_demo();
    return usage();
  } catch (const aesz::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
