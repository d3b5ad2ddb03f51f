#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "predictors/compressor.hpp"
#include "util/expected.hpp"

namespace aesz {

/// One registered codec: how to name it, recognize its streams, and build
/// an instance. The factory takes the field rank the caller intends to
/// compress so rank-specific codecs (AE-SZ) can pick a matching default
/// model config; rank-agnostic codecs ignore it.
struct CodecInfo {
  std::string name;
  std::string description;
  /// Leading stream magic, or 0 for codecs without a magic of their own
  /// (the `parallel:<codec>` wrappers share one container magic and are
  /// identified by the inner magic stored in the container header).
  std::uint32_t magic = 0;
  /// Default-options error_bounded() — kept here so metadata queries
  /// (e.g. `aesz_cli list-codecs`) need not construct the codec, which
  /// for the learned ones means building a whole network.
  bool error_bounded = true;
  std::function<std::unique_ptr<Compressor>(int rank)> factory;
};

/// Name -> factory registry over every codec in the repo. This is the
/// runtime-selection layer the CLI (`--codec NAME`), the benches, the
/// registry-parameterized tests, and the parallel pipeline's per-worker
/// codec construction all build codecs through.
///
/// Thread-safety guarantee: every method is individually thread-safe — a
/// mutex guards the codec table, so pipeline workers may call create() /
/// find() / identify() concurrently (ParallelCompressor builds one inner
/// codec per worker thread). Entries are never removed and live in a
/// std::deque, so `find()` pointers stay valid for the process lifetime.
/// Factories run OUTSIDE the lock (building a learned codec is expensive),
/// so a slow factory never serializes other lookups. The one caveat:
/// add() with an already-registered name overwrites that entry in place —
/// overriding a built-in is meant for startup, before other threads hold
/// pointers to it.
///
/// All built-in codecs (and their `parallel:` wrappers) are registered on
/// first use of instance(); registration lives in registry.cpp rather
/// than per-codec static initializers because unreferenced objects in a
/// static archive would be dropped by the linker, silently emptying the
/// registry.
class CodecRegistry {
 public:
  /// The process-wide registry with the built-in codecs registered.
  static CodecRegistry& instance();

  /// Register a codec. Last registration wins on a name collision (so
  /// embedders can override a built-in). Lookup is case-insensitive.
  void add(CodecInfo info);

  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  bool contains(const std::string& name) const;

  /// Metadata for a name, or nullptr when unknown. The pointer stays
  /// valid for the process lifetime (entries are never removed).
  const CodecInfo* find(const std::string& name) const;

  /// Build a fresh codec instance for fields of the given rank.
  Expected<std::unique_ptr<Compressor>> create(const std::string& name,
                                               int rank = 2) const;

  /// Identify which registered codec produced a stream, by leading magic.
  /// All three container formats resolve through an inner-codec lookup:
  /// the parallel pipeline's AEPC (inner magic in the container header)
  /// comes back as `parallel:<codec>`, the temporal AETC and progressive
  /// AEPR streams (inner registry NAME in their headers) as
  /// `temporal:<codec>` / `progressive:<codec>`. A container wrapping a
  /// codec this registry does not know is a typed kBadMagic.
  Expected<std::string> identify(
      std::span<const std::uint8_t> stream) const;

 private:
  const CodecInfo* find_locked(const std::string& name) const;

  mutable std::mutex mu_;
  std::deque<CodecInfo> codecs_;
};

/// Builds the inner codec a wrapper (temporal stream, progressive ladder)
/// runs for a given field rank. An empty factory means
/// CodecRegistry::create(name, rank); callers with out-of-registry
/// configuration (an AE-SZ instance loaded from a trained model file)
/// supply their own.
using CodecFactory =
    std::function<std::unique_ptr<Compressor>(const std::string& name,
                                              int rank)>;

/// Build `name` through `factory` (or the registry when it is empty).
/// Fallible: an unknown name, a null factory result, or — with
/// `require_rank` — a codec that does not support `rank` is a typed
/// status, since on the open/read paths the name comes from the stream.
Expected<std::unique_ptr<Compressor>> make_inner(const CodecFactory& factory,
                                                 const std::string& name,
                                                 int rank,
                                                 bool require_rank = true);

}  // namespace aesz
