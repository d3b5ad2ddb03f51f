#include "predictors/registry.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "ae_baselines/ae_a.hpp"
#include "ae_baselines/ae_b.hpp"
#include "core/aesz.hpp"
#include "format/container.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "progressive/progressive.hpp"
#include "sz/sz21.hpp"
#include "sz/szauto.hpp"
#include "sz/szinterp.hpp"
#include "zfp/zfp_like.hpp"

// Layering note: this .cpp is the registry's one deliberate upward edge —
// it references every codec (and the parallel pipeline wrapper) so the
// linker keeps them all in the archive and the registry is never silently
// empty. The header stays within the predictors layer.

namespace aesz {
namespace {

std::string lower(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// The first codec registered under a stream magic (0 = none of its own).
const CodecInfo* by_magic(const std::deque<CodecInfo>& codecs,
                          std::uint32_t magic) {
  for (const auto& c : codecs)
    if (c.magic != 0 && c.magic == magic) return &c;
  return nullptr;
}

/// Default AE-SZ configs at CPU scale (paper Table VI at reduced width):
/// 32x32 blocks in 2-D, 8x8x8 in 3-D, latent 16.
AESZ::Options default_aesz_options(int rank) {
  AESZ::Options opt;
  opt.ae.rank = rank == 3 ? 3 : 2;
  opt.ae.block = rank == 3 ? 8 : 32;
  opt.ae.latent = 16;
  opt.ae.channels = {8, 16, 32};
  return opt;
}

/// Seeds are fixed so registry-built learned codecs are deterministic:
/// the same binary always produces byte-identical streams.
constexpr std::uint64_t kAeszSeed = 1;
constexpr std::uint64_t kAeaSeed = 2;
constexpr std::uint64_t kAebSeed = 3;

void register_builtin_codecs(CodecRegistry& reg) {
  reg.add({"AE-SZ",
           "the paper's compressor: blockwise SWAE predictor + Lorenzo "
           "fallback, error-bounded",
           AESZ::kStreamMagic, /*error_bounded=*/true,
           [](int rank) -> std::unique_ptr<Compressor> {
             return std::make_unique<AESZ>(default_aesz_options(rank),
                                           kAeszSeed);
           }});
  reg.add({"SZ2.1",
           "Lorenzo + blockwise linear regression, error-bounded",
           SZ21::kStreamMagic, /*error_bounded=*/true,
           [](int) -> std::unique_ptr<Compressor> {
             return std::make_unique<SZ21>();
           }});
  reg.add({"SZauto",
           "second-order Lorenzo with sampled predictor selection, "
           "error-bounded",
           SZAuto::kStreamMagic, /*error_bounded=*/true,
           [](int) -> std::unique_ptr<Compressor> {
             return std::make_unique<SZAuto>();
           }});
  reg.add({"SZinterp",
           "level-by-level spline interpolation (SZ3-style), error-bounded",
           SZInterp::kStreamMagic, /*error_bounded=*/true,
           [](int) -> std::unique_ptr<Compressor> {
             return std::make_unique<SZInterp>();
           }});
  reg.add({"ZFP",
           "lifted-transform bit-plane codec, fixed-accuracy mode, "
           "error-bounded",
           ZFPLike::kStreamMagic, /*error_bounded=*/true,
           [](int) -> std::unique_ptr<Compressor> {
             return std::make_unique<ZFPLike>();
           }});
  reg.add({"AE-A",
           "sliding-window fully-connected AE with SZ-style residual "
           "correction, error-bounded",
           AEA::kStreamMagic, /*error_bounded=*/true,
           [](int) -> std::unique_ptr<Compressor> {
             return std::make_unique<AEA>(AEA::Options{}, kAeaSeed);
           }});
  reg.add({"AE-B",
           "3-D convolutional AE, fixed 64x ratio, NOT error-bounded",
           AEB::kStreamMagic, /*error_bounded=*/false,
           [](int) -> std::unique_ptr<Compressor> {
             return std::make_unique<AEB>(AEB::Options{}, kAebSeed);
           }});

  // One `parallel:<codec>` wrapper per built-in: sharded multi-chunk
  // compression on a thread pool (src/pipeline/), container stream format.
  // The wrappers carry no magic of their own (magic 0) — identify() maps
  // the container magic + inner magic back to `parallel:<name>`.
  const auto builtins = reg.names();  // snapshot before adding wrappers
  for (const auto& name : builtins) {
    const CodecInfo* inner = reg.find(name);
    reg.add({"parallel:" + name,
             "sharded thread-pool wrapper over " + name +
                 " (multi-chunk container stream)",
             /*magic=*/0, inner->error_bounded,
             [name](int rank) -> std::unique_ptr<Compressor> {
               return std::make_unique<pipeline::ParallelCompressor>(
                   pipeline::ParallelCompressor::Options{name}, rank);
             }});
  }

  // One `progressive:<codec>` wrapper per error-bounded built-in: layered
  // AEPR streams whose prefixes decode at recorded looser bounds
  // (src/progressive/). Like `parallel:`, the wrappers share one container
  // magic (carried as magic 0 here) — identify() resolves the inner codec
  // name stored in the AEPR header. AE-B is skipped: a bound ladder over a
  // codec that cannot bound its error guarantees nothing.
  for (const auto& name : builtins) {
    const CodecInfo* inner = reg.find(name);
    if (!inner->error_bounded) continue;
    reg.add({"progressive:" + name,
             "layered multi-fidelity wrapper over " + name +
                 " (AEPR refinement-layer stream)",
             /*magic=*/0, /*error_bounded=*/true,
             [name](int rank) -> std::unique_ptr<Compressor> {
               progressive::ProgressiveWriter::Options opt;
               opt.inner = name;
               return std::make_unique<progressive::ProgressiveCompressor>(
                   std::move(opt), rank);
             }});
  }
}

}  // namespace

CodecRegistry& CodecRegistry::instance() {
  static CodecRegistry* reg = [] {
    auto* r = new CodecRegistry();
    register_builtin_codecs(*r);
    return r;
  }();
  return *reg;
}

void CodecRegistry::add(CodecInfo info) {
  const std::string key = lower(info.name);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::find_if(codecs_.begin(), codecs_.end(), [&](const CodecInfo& c) {
        return lower(c.name) == key;
      });
  if (it != codecs_.end())
    *it = std::move(info);
  else
    codecs_.push_back(std::move(info));
}

std::vector<std::string> CodecRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(codecs_.size());
  for (const auto& c : codecs_) out.push_back(c.name);
  return out;
}

const CodecInfo* CodecRegistry::find_locked(const std::string& name) const {
  const std::string key = lower(name);
  for (const auto& c : codecs_)
    if (lower(c.name) == key) return &c;
  return nullptr;
}

const CodecInfo* CodecRegistry::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_locked(name);
}

bool CodecRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

Expected<std::unique_ptr<Compressor>> CodecRegistry::create(
    const std::string& name, int rank) const {
  // Copy the factory out under the lock and run it outside: building a
  // learned codec is expensive, and pipeline workers create concurrently.
  std::function<std::unique_ptr<Compressor>(int)> factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const CodecInfo* info = find_locked(name)) factory = info->factory;
  }
  if (!factory) {
    std::string known;
    for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
    return Status::error(ErrCode::kUnsupported, "unknown codec '" + name +
                                                    "' (registered: " +
                                                    known + ")");
  }
  if (rank < 1 || rank > 3)
    return Status::error(ErrCode::kInvalidArgument,
                         "rank must be 1, 2, or 3");
  return factory(rank);
}

Expected<std::string> CodecRegistry::identify(
    std::span<const std::uint8_t> stream) const {
  // Degenerate inputs get distinct, explicit handling: an empty stream is
  // a different caller mistake (no data at all) than a stream shorter
  // than a magic word (truncated file/frame), and both must stay typed
  // errors — the service layer routes untrusted bytes straight here.
  if (stream.empty())
    return Status::error(ErrCode::kTruncated, "empty stream");
  // All three containers resolve through their preamble (kTruncated
  // below a magic word, kBadMagic for no container): AEPC names its inner
  // codec by magic (`parallel:<codec>`), AETC and AEPR by registry NAME
  // (`temporal:<codec>` / `progressive:<codec>` — they may wrap
  // magic-less `parallel:` streams).
  const auto pre = format::peek(stream);
  if (!pre.ok() && pre.status().code != ErrCode::kBadMagic)
    return pre.status();
  std::lock_guard<std::mutex> lock(mu_);
  if (!pre.ok()) {
    std::uint32_t magic = 0;
    std::memcpy(&magic, stream.data(), sizeof(magic));
    if (const CodecInfo* c = by_magic(codecs_, magic)) return c->name;
    return Status::error(ErrCode::kBadMagic,
                         "stream magic matches no registered codec");
  }
  const bool aepc = pre->magic == format::kAepc.magic;
  const CodecInfo* c = aepc ? by_magic(codecs_, pre->inner_magic)
                            : find_locked(pre->inner);
  if (c == nullptr)
    return Status::error(ErrCode::kBadMagic,
                         "container wraps no registered codec");
  const char* wrapper = aepc ? "parallel:"
                        : pre->magic == format::kAetc.magic ? "temporal:"
                                                             : "progressive:";
  return wrapper + c->name;
}

Expected<std::unique_ptr<Compressor>> make_inner(const CodecFactory& factory,
                                                 const std::string& name,
                                                 int rank, bool require_rank) {
  std::unique_ptr<Compressor> codec;
  if (factory) {
    codec = factory(name, rank);
    if (!codec)
      return Status::error(ErrCode::kUnsupported,
                           "codec factory returned null for '" + name + "'");
  } else {
    auto built = CodecRegistry::instance().create(name, rank);
    if (!built.ok()) return built.status();
    codec = std::move(*built);
  }
  if (require_rank && !codec->supports_rank(rank))
    return Status::error(ErrCode::kUnsupported,
                         "codec '" + name + "' does not support rank " +
                             std::to_string(rank));
  return codec;
}

}  // namespace aesz
