#include "pipeline/parallel_compressor.hpp"

#include <atomic>
#include <exception>
#include <future>
#include <utility>

#include "predictors/registry.hpp"
#include "sz/common.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace aesz::pipeline {

namespace {

InnerFactory registry_factory(const std::string& inner) {
  return [inner](int rank) -> std::unique_ptr<Compressor> {
    auto c = CodecRegistry::instance().create(inner, rank);
    if (!c.ok()) throw Error(c.status().code, c.status().str());
    return std::move(c).value();
  };
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ParallelCompressor::ParallelCompressor(Options opt, int rank_hint)
    : ParallelCompressor(opt, rank_hint, registry_factory(opt.inner)) {}

ParallelCompressor::ParallelCompressor(Options opt, int rank_hint,
                                       InnerFactory factory)
    : opt_(std::move(opt)),
      factory_(std::move(factory)),
      rank_hint_(rank_hint),
      prototype_(factory_(rank_hint)),
      inner_name_(prototype_->name()),
      threads_(resolve_threads(opt_.threads)),
      workers_(threads_) {}

bool ParallelCompressor::error_bounded() const {
  return prototype_->error_bounded();
}

bool ParallelCompressor::supports_rank(int rank) const {
  return prototype_->supports_rank(rank);
}

Compressor& ParallelCompressor::worker(std::size_t w, int rank) {
  if (w == 0 && rank == rank_hint_) return *prototype_;
  Worker& slot = workers_[w];
  if (!slot.codec || slot.rank != rank) slot = {rank, factory_(rank)};
  return *slot.codec;
}

/// Sequential on worker 0 when a single worker suffices, otherwise a
/// ThreadPool task per worker with dynamic (atomic-counter) chunk
/// scheduling; each task touches only its own worker slot. The first
/// exception thrown by any worker is rethrown here; remaining workers stop
/// at their next pull.
template <typename Fn>
void ParallelCompressor::for_each_chunk(int rank, std::size_t n, Fn&& fn) {
  const std::size_t workers = std::min(threads_, n);
  if (workers <= 1) {
    Compressor& codec = worker(0, rank);
    for (std::size_t i = 0; i < n; ++i) fn(codec, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  ThreadPool pool(workers);
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(pool.submit([this, w, &fn, &next, &failed, rank, n] {
      Compressor& codec = worker(w, rank);
      for (;;) {
        if (failed.load(std::memory_order_acquire)) return;
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(codec, i);
        } catch (...) {
          failed.store(true, std::memory_order_release);
          throw;
        }
      }
    }));
  }
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

std::vector<std::uint8_t> ParallelCompressor::compress(const Field& f,
                                                       const ErrorBound& eb) {
  const int rank = f.dims().rank;
  AESZ_CHECK_ARG(supports_rank(rank),
                 name() + " does not support rank-" + std::to_string(rank) +
                     " fields");
  // Max-over-chunks guarantee: resolve the bound against the WHOLE field
  // once and hand every chunk the resulting absolute tolerance. Codecs
  // without an error-bounding mechanism get the request verbatim.
  ErrorBound chunk_eb = eb;
  double abs_eb = 0.0;
  if (prototype_->error_bounded()) {
    abs_eb = sz::resolve_abs_eb(f, eb, name().c_str());
    chunk_eb = ErrorBound::Abs(abs_eb);
  }
  const std::size_t chunk_rows =
      opt_.chunk_rows != 0 ? opt_.chunk_rows : auto_chunk_rows(f.dims());
  const std::vector<ChunkSpec> chunks = make_chunks(f.dims(), chunk_rows);
  std::vector<std::vector<std::uint8_t>> payloads(chunks.size());
  for_each_chunk(rank, chunks.size(), [&](Compressor& codec, std::size_t i) {
    payloads[i] = codec.compress(extract_chunk(f, chunks[i]), chunk_eb);
  });
  // Every inner stream leads with its codec magic; lift the first one into
  // the container header so streams stay identifiable without the wrapper.
  ByteReader r(payloads.front());
  const auto inner_magic = r.get<std::uint32_t>();
  return write_container(inner_magic, f.dims(), eb, abs_eb, chunk_rows,
                         chunks, payloads);
}

Field ParallelCompressor::decompress_impl(
    std::span<const std::uint8_t> stream) {
  auto parsed = read_container(stream);
  if (!parsed.ok())
    throw Error(parsed.status().code, parsed.status().message);
  const ContainerInfo& info = *parsed;
  Field out(info.dims);
  // Workers write disjoint axis-0 slabs of `out`; no synchronization
  // needed beyond the joins inside for_each_chunk.
  for_each_chunk(info.dims.rank, info.chunks.size(),
                 [&](Compressor& codec, std::size_t i) {
                   auto chunk = codec.decompress(info.payloads[i]);
                   if (!chunk.ok())
                     throw Error(chunk.status().code,
                                 "chunk " + std::to_string(i) + ": " +
                                     chunk.status().message);
                   scatter_chunk(out, info.chunks[i], *chunk);
                 });
  return out;
}

}  // namespace aesz::pipeline
