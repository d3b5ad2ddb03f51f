#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pipeline/container.hpp"
#include "predictors/compressor.hpp"

namespace aesz::pipeline {

/// Compressor factory used to build one independent inner-codec instance
/// per worker thread (codecs are not required to be thread-safe; instances
/// are). Takes the field rank, like CodecRegistry factories.
using InnerFactory =
    std::function<std::unique_ptr<Compressor>(int rank)>;

/// `Compressor`-conforming adapter that shards a field into axis-0 slabs
/// (pipeline/sharder.hpp), compresses them concurrently on a ThreadPool —
/// one inner-codec instance per worker — and assembles the results into
/// the versioned multi-chunk container format (pipeline/container.hpp).
/// Any registry codec can be wrapped without touching its own stream
/// format; the registry exposes this as `parallel:<codec>`.
///
/// Warm workers: each worker's inner instance is built on first use and
/// kept for later calls, rebuilt only when a call's rank differs from the
/// one it was built for; worker 0 at the construction rank is the
/// prototype itself. So a wrapped AE-SZ loads its model once per worker
/// for the life of the wrapper, not once per worker per call. The shared
/// instances make one ParallelCompressor unsafe to call concurrently, like
/// any Compressor.
///
/// Error-bound semantics (max-over-chunks guarantee): the requested bound
/// is resolved against the WHOLE field's value range once, and every chunk
/// is compressed under that absolute tolerance. Each point therefore
/// satisfies exactly the bound a single-shot run of the inner codec would
/// have enforced — a value-range-relative or PSNR bound never weakens or
/// tightens because of how the field happened to be sharded.
///
/// Determinism: chunk boundaries depend only on the field dims and the
/// chunk_rows option (the auto default is a function of the dims alone),
/// never on the thread count, and every inner instance built by the same
/// factory is identical (registry codecs use fixed seeds) and keeps no
/// state between calls that alters its output — so 1-thread and N-thread
/// runs, and first and later calls, produce byte-identical containers.
class ParallelCompressor : public Compressor {
 public:
  struct Options {
    std::string inner;        // registry name of the wrapped codec
    std::size_t threads = 0;  // worker count; 0 = hardware_concurrency
    std::size_t chunk_rows = 0;  // slab thickness; 0 = auto (~1 MiB slabs)
  };

  /// Wrap the registry codec named `opt.inner`. `rank_hint` is forwarded
  /// to the inner factory (rank-specific codecs pick a matching default
  /// config). Throws aesz::Error(kUnsupported) on an unknown inner name.
  explicit ParallelCompressor(Options opt, int rank_hint = 2);

  /// Wrap codecs built by a custom factory (e.g. AE-SZ instances loading
  /// a trained model file) instead of the registry.
  ParallelCompressor(Options opt, int rank_hint, InnerFactory factory);

  std::string name() const override { return "parallel:" + inner_name_; }
  bool error_bounded() const override;
  bool supports_rank(int rank) const override;

  using Compressor::compress;
  std::vector<std::uint8_t> compress(const Field& f,
                                     const ErrorBound& eb) override;

  /// Worker count this instance will use (after hardware resolution).
  std::size_t threads() const { return threads_; }

 protected:
  Field decompress_impl(std::span<const std::uint8_t> stream) override;

 private:
  /// A warm inner instance and the rank it was built for.
  struct Worker {
    int rank = 0;
    std::unique_ptr<Compressor> codec;
  };

  /// Worker `w`'s inner instance for `rank`: the prototype for worker 0 at
  /// the construction rank, otherwise slot `w`, (re)built when empty or
  /// built for another rank.
  Compressor& worker(std::size_t w, int rank);

  /// Run fn(codec, chunk_index) over every index in [0, n) on up to
  /// threads_ warm workers.
  template <typename Fn>
  void for_each_chunk(int rank, std::size_t n, Fn&& fn);

  Options opt_;
  InnerFactory factory_;
  int rank_hint_;
  std::unique_ptr<Compressor> prototype_;  // metadata queries and worker 0
  std::string inner_name_;
  std::size_t threads_ = 1;
  std::vector<Worker> workers_;  // one slot per worker, empty until used
};

}  // namespace aesz::pipeline
