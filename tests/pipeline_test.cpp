#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "data/synth.hpp"
#include "format/container.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/container.hpp"
#include "pipeline/parallel_compressor.hpp"
#include "pipeline/sharder.hpp"
#include "predictors/registry.hpp"
#include "util/bytestream.hpp"
#include "util/crc32c.hpp"
#include "util/thread_pool.hpp"

namespace aesz {
namespace {

using pipeline::ChunkSpec;
using pipeline::ParallelCompressor;

CodecRegistry& reg() { return CodecRegistry::instance(); }

Field field_for_rank(int rank) {
  switch (rank) {
    case 1: {
      Field f{Dims(std::size_t{512})};
      for (std::size_t i = 0; i < f.size(); ++i)
        f.at(i) = std::sin(0.02f * static_cast<float>(i)) +
                  0.2f * std::sin(0.17f * static_cast<float>(i));
      return f;
    }
    case 2: return synth::cesm_freqsh(32, 48, 50);
    default: return synth::hurricane_u(16, 16, 16, 43);
  }
}

// ------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;  // 0 → hardware_concurrency, clamped to >= 1
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw Error(ErrCode::kInternal, "task boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), Error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
    // No future joins: the destructor itself must finish the queue.
  }
  EXPECT_EQ(ran.load(), 100);
}

// ----------------------------------------------------------- sharder ----

TEST(Sharder, ChunksTileTheFieldWithRemainder) {
  const Dims d(10, 6, 4);
  const auto chunks = pipeline::make_chunks(d, 4);
  ASSERT_EQ(chunks.size(), 3u);  // 4 + 4 + 2 planes
  std::size_t row = 0, elem = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.row0, row);
    EXPECT_EQ(c.elem0, elem);
    EXPECT_EQ(c.dims.rank, 3);
    EXPECT_EQ(c.dims[0], c.rows);
    EXPECT_EQ(c.dims[1], 6u);
    EXPECT_EQ(c.dims[2], 4u);
    EXPECT_EQ(c.elems, c.rows * 24u);
    row += c.rows;
    elem += c.elems;
  }
  EXPECT_EQ(row, 10u);
  EXPECT_EQ(elem, d.total());
  EXPECT_EQ(chunks.back().rows, 2u);
}

TEST(Sharder, OversizedOrZeroChunkYieldsSingleChunk) {
  for (const std::size_t rows : {std::size_t{0}, std::size_t{99}}) {
    const auto chunks = pipeline::make_chunks(Dims(7, 5), rows);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].rows, 7u);
    EXPECT_EQ(chunks[0].elems, 35u);
  }
}

TEST(Sharder, DegenerateDimsAreTypedErrors) {
  EXPECT_THROW(pipeline::make_chunks(Dims(std::size_t{0}), 4), Error);
  EXPECT_THROW(pipeline::make_chunks(Dims(4, 0), 4), Error);
  EXPECT_THROW(pipeline::make_chunks(Dims{}, 4), Error);  // rank 0
}

TEST(Sharder, ExtractScatterRoundTrip) {
  Field f = field_for_rank(3);
  const auto chunks = pipeline::make_chunks(f.dims(), 5);
  Field out(f.dims(), -999.0f);
  for (const auto& c : chunks) {
    const Field chunk = pipeline::extract_chunk(f, c);
    EXPECT_EQ(chunk.dims(), c.dims);
    pipeline::scatter_chunk(out, c, chunk);
  }
  for (std::size_t i = 0; i < f.size(); ++i)
    ASSERT_EQ(out.at(i), f.at(i)) << i;
}

TEST(Sharder, ScatterRejectsMismatchedChunk) {
  Field f(Dims(8, 8));
  const auto chunks = pipeline::make_chunks(f.dims(), 4);
  const Field wrong(Dims(3, 8));
  EXPECT_THROW(pipeline::scatter_chunk(f, chunks[0], wrong), Error);
}

TEST(Sharder, AutoChunkRowsTargetsOneMiBIndependentOfThreads) {
  // ~1 MiB of f32 per slab, derived from the dims ALONE (no thread-count
  // parameter exists) so default-chunked containers are byte-identical
  // for every worker count.
  EXPECT_EQ(pipeline::auto_chunk_rows(Dims(std::size_t{8192})), 262144u);
  EXPECT_EQ(pipeline::auto_chunk_rows(Dims(4096, 4096)), 64u);
  EXPECT_EQ(pipeline::auto_chunk_rows(Dims(512, 512, 512)), 1u);
  // Plane wider than the target: still at least one row per chunk.
  EXPECT_EQ(pipeline::auto_chunk_rows(Dims(4, 1 << 20)), 1u);
}

// --------------------------------------------------------- container ----

TEST(Container, SniffAndPeek) {
  auto c = reg().create("parallel:SZ2.1", 2).value();
  const auto stream = c->compress(field_for_rank(2), ErrorBound::Rel(1e-2));
  const auto pre = format::peek(stream);
  ASSERT_TRUE(pre.ok()) << pre.status().str();
  EXPECT_EQ(pre->magic, pipeline::kContainerMagic);
  EXPECT_EQ(pre->inner_magic, reg().find("SZ2.1")->magic);
  EXPECT_EQ(pre->dims, field_for_rank(2).dims());

  const auto plain = reg().create("SZ2.1", 2).value()->compress(
      field_for_rank(2), ErrorBound::Rel(1e-2));
  EXPECT_EQ(format::peek(plain).status().code, ErrCode::kBadMagic);
  EXPECT_EQ(format::peek({}).status().code, ErrCode::kTruncated);
}

TEST(Container, HeaderRecordsRequestAndResolvedBound) {
  const Field f = field_for_rank(2);
  ParallelCompressor c({.inner = "SZ2.1", .threads = 2, .chunk_rows = 8}, 2);
  const ErrorBound eb = ErrorBound::Rel(1e-2);
  const auto stream = c.compress(f, eb);
  const auto info = pipeline::read_container(stream);
  ASSERT_TRUE(info.ok()) << info.status().str();
  EXPECT_EQ(info->dims, f.dims());
  EXPECT_EQ(info->eb, eb);
  EXPECT_DOUBLE_EQ(info->abs_eb, eb.absolute(f.value_range()));
  EXPECT_EQ(info->chunk_rows, 8u);
  EXPECT_EQ(info->chunks.size(), 4u);  // 32 rows / 8
  EXPECT_EQ(info->payloads.size(), info->chunks.size());
}

/// Hand-built hostile containers: every malformed table maps to a typed
/// status before any unbounded allocation.
TEST(Container, HostileHeadersAreTypedErrors) {
  const auto base = [] {
    ByteWriter w;
    w.put(pipeline::kContainerMagic);
    w.put(pipeline::kContainerVersion);
    w.put(std::uint32_t{0x1234});  // inner magic (unchecked by the parser)
    return w;
  };
  {  // bad version
    ByteWriter w;
    w.put(pipeline::kContainerMagic);
    w.put(std::uint8_t{99});
    w.put(std::uint32_t{0x1234});
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kBadHeader);
  }
  {  // bad rank
    auto w = base();
    w.put(std::uint8_t{4});
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kBadHeader);
  }
  {  // dims overflow
    auto w = base();
    w.put(std::uint8_t{2});
    w.put_varint(std::uint64_t{1} << 32);
    w.put_varint(std::uint64_t{1} << 32);
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kBadHeader);
  }
  const auto with_bound = [&base] {
    auto w = base();
    w.put(std::uint8_t{1});  // rank 1
    w.put_varint(16);        // dims {16}
    w.put(std::uint8_t{0});  // abs mode
    w.put(1e-3);             // requested
    w.put(1e-3);             // resolved
    return w;
  };
  {  // hostile chunk count: capped before the table allocation
    auto w = with_bound();
    w.put_varint(4);                        // chunk_rows
    w.put_varint(std::uint64_t{1} << 60);  // chunk count
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kBadHeader);
  }
  {  // chunk rows exceed the field
    auto w = with_bound();
    w.put_varint(4);
    w.put_varint(2);       // 2 chunks
    w.put_varint(20);      // 20 rows > dims[0]=16
    w.put_varint(0);
    w.put(std::uint32_t{0});  // v2 per-chunk crc
    w.put_varint(1);
    w.put_varint(0);
    w.put(std::uint32_t{0});
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kCorruptStream);
  }
  {  // table does not cover the field
    auto w = with_bound();
    w.put_varint(4);
    w.put_varint(1);
    w.put_varint(8);  // only 8 of 16 rows
    w.put_varint(0);
    w.put(std::uint32_t{0});  // v2 per-chunk crc
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kCorruptStream);
  }
  {  // payload length overruns the stream
    auto w = with_bound();
    w.put_varint(16);
    w.put_varint(1);
    w.put_varint(16);
    w.put_varint(1000);  // claims 1000 payload bytes; none follow
    w.put(std::uint32_t{0});  // v2 per-chunk crc
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kTruncated);
  }
  {  // trailing garbage after the declared payloads
    auto w = with_bound();
    w.put_varint(16);
    w.put_varint(1);
    w.put_varint(16);
    w.put_varint(2);
    const std::uint8_t payload[2] = {0, 0};
    w.put(util::crc32c(payload));  // honest crc of the declared payload
    w.put(std::uint8_t{0});
    w.put(std::uint8_t{0});
    w.put(std::uint8_t{0xEE});  // one byte too many
    EXPECT_EQ(pipeline::read_container(w.bytes()).status().code,
              ErrCode::kCorruptStream);
  }
}

// ------------------------------------------- parallel round-trips --------

/// The acceptance-criteria suite: every registered base codec × 1-D/2-D/
/// 3-D × {Abs, Rel} bounds round-trips through the parallel wrapper with
/// multiple chunks and a real thread pool, and the requested bound holds
/// for EVERY chunk of the reassembled field (max-over-chunks guarantee).
TEST(ParallelPipeline, RoundTripEveryCodecBoundAndRank) {
  for (const auto& name : reg().names()) {
    if (name.rfind("parallel:", 0) == 0) continue;  // wrap each base once
    for (int rank = 1; rank <= 3; ++rank) {
      // Slab thickness that forces several chunks at every rank (512-elem
      // 1-D, 32x48 2-D, 16^3 3-D test fields) but keeps 3-D slabs thick
      // enough for AE-B's fixed 8^3 blocks.
      const std::size_t chunk_rows = rank == 1 ? 128 : 8;
      ParallelCompressor codec(
          {.inner = name, .threads = 3, .chunk_rows = chunk_rows}, rank);
      if (!codec.supports_rank(rank)) continue;
      const Field f = field_for_rank(rank);
      const double range = f.value_range();
      for (const ErrorBound& eb :
           {ErrorBound::Abs(1e-2 * range), ErrorBound::Rel(1e-2)}) {
        const auto stream = codec.compress(f, eb);
        auto recon = codec.decompress(stream);
        ASSERT_TRUE(recon.ok())
            << name << " rank " << rank << " " << eb.str() << ": "
            << recon.status().str();
        ASSERT_EQ(recon->dims(), f.dims()) << name;
        if (!codec.error_bounded()) continue;  // AE-B: fixed ratio
        const double tol = eb.absolute(range) * (1 + 1e-9);
        // Per-chunk bound check against the container's own geometry.
        const auto info = pipeline::read_container(stream);
        ASSERT_TRUE(info.ok());
        for (const auto& chunk : info->chunks) {
          double chunk_err = 0;
          for (std::size_t i = chunk.elem0; i < chunk.elem0 + chunk.elems;
               ++i)
            chunk_err = std::max(
                chunk_err,
                std::abs(static_cast<double>(f.at(i)) - recon->at(i)));
          EXPECT_LE(chunk_err, tol)
              << name << " violated " << eb.str() << " in chunk at row "
              << chunk.row0 << " (rank " << rank << ")";
        }
      }
    }
  }
}

/// Thread counts must not change the bytes: chunk boundaries depend only
/// on (dims, chunk_rows) and per-worker codec instances are identical, so
/// 1-thread and N-thread runs produce byte-identical containers and
/// identical reconstructions.
TEST(ParallelPipeline, DeterministicAcrossThreadCounts) {
  for (const char* name : {"SZ2.1", "ZFP", "AE-SZ"}) {
    const Field f = field_for_rank(2);
    ParallelCompressor one({.inner = name, .threads = 1, .chunk_rows = 8},
                           2);
    ParallelCompressor four({.inner = name, .threads = 4, .chunk_rows = 8},
                            2);
    const auto s1 = one.compress(f, ErrorBound::Rel(1e-2));
    const auto s4 = four.compress(f, ErrorBound::Rel(1e-2));
    EXPECT_EQ(s1, s4) << name << ": containers differ across thread counts";
    auto g1 = four.decompress(s1);  // cross-decode: 4 threads on 1's bytes
    auto g4 = one.decompress(s4);
    ASSERT_TRUE(g1.ok()) << name << ": " << g1.status().str();
    ASSERT_TRUE(g4.ok()) << name << ": " << g4.status().str();
    for (std::size_t i = 0; i < f.size(); ++i)
      ASSERT_EQ(g1->at(i), g4->at(i)) << name << " diverges at " << i;
  }
}

TEST(ParallelPipeline, DefaultChunkingIsAlsoThreadCountInvariant) {
  // The auto chunk size is a function of the dims alone, so the
  // byte-identical guarantee holds with NO chunk_rows given. A rank-1
  // field of 4M elements auto-shards into 16 one-MiB chunks.
  Field f{Dims(std::size_t{4 * 1024 * 1024})};
  for (std::size_t i = 0; i < f.size(); ++i)
    f.at(i) = std::sin(1e-4f * static_cast<float>(i));
  ParallelCompressor one({.inner = "SZ2.1", .threads = 1}, 1);
  ParallelCompressor three({.inner = "SZ2.1", .threads = 3}, 1);
  const auto s1 = one.compress(f, ErrorBound::Rel(1e-3));
  const auto s3 = three.compress(f, ErrorBound::Rel(1e-3));
  EXPECT_EQ(s1, s3);
  const auto info = pipeline::read_container(s1);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->chunks.size(), 16u);
}

TEST(ParallelPipeline, MatchesSingleShotErrorBoundResolution) {
  // A Rel bound resolved against the WHOLE field: a chunk with a smaller
  // local value range must still be held to the global tolerance, i.e.
  // the parallel result satisfies exactly what a single-shot run would.
  Field f(Dims(64, 32));
  for (std::size_t i = 0; i < f.size(); ++i) {
    const float x = static_cast<float>(i) / static_cast<float>(f.size());
    // First half nearly flat, second half spans a large range.
    f.at(i) = i < f.size() / 2 ? 0.01f * x
                               : 10.0f * std::sin(20.0f * x);
  }
  const ErrorBound eb = ErrorBound::Rel(1e-3);
  ParallelCompressor c({.inner = "SZ2.1", .threads = 2, .chunk_rows = 16},
                       2);
  const auto stream = c.compress(f, eb);
  const auto info = pipeline::read_container(stream);
  ASSERT_TRUE(info.ok());
  EXPECT_DOUBLE_EQ(info->abs_eb, eb.absolute(f.value_range()));
  Field g = c.decompress(stream).value();
  EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
            eb.absolute(f.value_range()) * (1 + 1e-9));
}

TEST(ParallelPipeline, RegistryCreateAndIdentify) {
  // The registry path: `parallel:<codec>` factories and container-aware
  // stream identification.
  const Field f = field_for_rank(2);
  auto c = reg().create("PARALLEL:sz2.1", 2).value();  // case-insensitive
  EXPECT_EQ(c->name(), "parallel:SZ2.1");
  const auto stream = c->compress(f, ErrorBound::Rel(1e-2));
  auto id = reg().identify(stream);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, "parallel:SZ2.1");
  // A container wrapping an unknown inner magic is a typed error.
  auto bad = stream;
  bad[5] ^= 0xFF;  // inner-magic bytes sit after magic+version
  EXPECT_EQ(reg().identify(bad).status().code, ErrCode::kBadMagic);
}

TEST(ParallelPipeline, UnknownInnerCodecIsTypedError) {
  EXPECT_THROW(
      ParallelCompressor({.inner = "SZ9000", .threads = 2}, 2), Error);
}

TEST(ParallelPipeline, WorkerExceptionsSurfaceOnce) {
  ParallelCompressor c({.inner = "SZ2.1", .threads = 3, .chunk_rows = 4},
                       2);
  const Field f = field_for_rank(2);
  // An unusable bound is rejected up front with a typed exception.
  EXPECT_THROW(
      {
        try {
          c.compress(f, ErrorBound::Abs(-1.0));
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrCode::kInvalidArgument);
          throw;
        }
      },
      Error);
  // A chunk whose payload is garbage makes a WORKER throw mid-decode; the
  // pool collects it and decompress() reports a single typed status.
  auto stream = c.compress(f, ErrorBound::Rel(1e-2));
  const auto info = pipeline::read_container(stream);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(info->payloads.size(), 3u);
  const auto& victim = info->payloads[2];
  const std::size_t off =
      static_cast<std::size_t>(victim.data() - stream.data());
  std::fill(stream.begin() + static_cast<long>(off),
            stream.begin() + static_cast<long>(off + victim.size()), 0xAB);
  const auto result = c.decompress(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().code, ErrCode::kOk);
}

/// Satellite regression: mutate a valid container at every chunk boundary
/// (and truncate it there) — each case must come back as a typed error or
/// a decoded field, never a crash or OOB read (run under ASan/UBSan and
/// TSan in CI).
TEST(ParallelPipeline, CorruptionAtEveryChunkBoundary) {
  ParallelCompressor c({.inner = "SZ2.1", .threads = 2, .chunk_rows = 8},
                       2);
  const Field f = field_for_rank(2);
  const auto stream = c.compress(f, ErrorBound::Rel(1e-2));

  // Chunk boundaries: start of each payload, plus the stream end.
  std::vector<std::size_t> boundaries;
  {
    const auto info = pipeline::read_container(stream);
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->payloads.size(), 4u);
    for (const auto& p : info->payloads)
      boundaries.push_back(
          static_cast<std::size_t>(p.data() - stream.data()));
    boundaries.push_back(stream.size());
  }

  for (const std::size_t b : boundaries) {
    // Truncation at the boundary must be a typed error (the container
    // declares its payload sizes, so any strict prefix is detectable).
    if (b < stream.size()) {
      std::vector<std::uint8_t> cut(stream.begin(),
                                    stream.begin() + static_cast<long>(b));
      const auto result = c.decompress(cut);
      ASSERT_FALSE(result.ok()) << "prefix of " << b << " bytes accepted";
      EXPECT_NE(result.status().code, ErrCode::kOk);
    }
    // Byte flips just before/after the boundary must not crash; a typed
    // error or a (garbage) field are both acceptable outcomes.
    for (const std::size_t pos : {b - 1, b}) {
      if (pos >= stream.size()) continue;
      auto bad = stream;
      bad[pos] ^= 0x5A;
      const auto result = c.decompress(bad);
      if (!result.ok()) {
        EXPECT_NE(result.status().code, ErrCode::kOk);
      }
    }
  }

  // Every single-byte truncation of the whole stream is also typed (the
  // cheap exhaustive version of the same guarantee).
  for (std::size_t n = 0; n < stream.size(); n += 7) {
    std::vector<std::uint8_t> cut(stream.begin(),
                                  stream.begin() + static_cast<long>(n));
    const auto result = c.decompress(cut);
    ASSERT_FALSE(result.ok()) << n;
  }
}

TEST(ParallelPipeline, SingleChunkFieldStillRoundTrips) {
  // chunk_rows >= d0: one chunk, sequential path, still a valid container.
  const Field f = field_for_rank(1);
  ParallelCompressor c({.inner = "SZinterp", .threads = 4,
                        .chunk_rows = 100000},
                       1);
  const auto stream = c.compress(f, ErrorBound::Abs(1e-3));
  const auto info = pipeline::read_container(stream);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->chunks.size(), 1u);
  Field g = c.decompress(stream).value();
  EXPECT_LE(metrics::max_abs_err(f.values(), g.values()), 1e-3 * (1 + 1e-9));
}

/// One instance reused across calls, fields and ranks (2-D then 3-D) must
/// produce exactly what a fresh instance produces for each call: worker
/// state left by an earlier field or rank never leaks into a later stream
/// or decode.
TEST(ParallelPipeline, ReusedInstanceMatchesFreshInstancePerCall) {
  const auto variant = [](int rank) {
    return rank == 2 ? synth::cesm_freqsh(40, 48, 7)
                     : synth::hurricane_u(24, 16, 16, 11);
  };
  const auto options = [](const std::string& base) {
    return ParallelCompressor::Options{
        .inner = base, .threads = 3, .chunk_rows = 8};
  };
  const auto same_values = [](const Field& a, const Field& b) {
    return a.dims() == b.dims() &&
           std::equal(a.values().begin(), a.values().end(),
                      b.values().begin());
  };
  for (const auto& name : reg().names()) {
    if (name.rfind("parallel:", 0) != 0) continue;
    const std::string base = name.substr(9);
    int first = 0;
    for (int rank = 2; rank <= 3 && first == 0; ++rank)
      if (ParallelCompressor(options(base), rank).supports_rank(rank))
        first = rank;
    ASSERT_NE(first, 0) << name;
    ParallelCompressor shared(options(base), first);
    std::vector<std::uint8_t> first_stream;
    for (int rank = 2; rank <= 3; ++rank) {
      for (const Field& f : {field_for_rank(rank), variant(rank)}) {
        ParallelCompressor fresh(options(base), rank);
        if (!fresh.supports_rank(rank)) continue;
        const auto expected = fresh.compress(f, ErrorBound::Rel(1e-2));
        if (shared.supports_rank(rank)) {
          EXPECT_EQ(shared.compress(f, ErrorBound::Rel(1e-2)), expected)
              << name << " rank " << rank;
        }
        if (first_stream.empty()) first_stream = expected;
        // Decoding on the reused instance (at any rank the stream has)
        // matches a fresh decode value for value.
        auto got = shared.decompress(expected);
        auto want = ParallelCompressor(options(base), rank)
                        .decompress(expected);
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().str();
        ASSERT_TRUE(want.ok()) << name << ": " << want.status().str();
        EXPECT_TRUE(same_values(*got, *want)) << name << " rank " << rank;
      }
    }
    // Back to the first stream after every other rank and field.
    auto again = shared.decompress(first_stream);
    auto want = ParallelCompressor(options(base), first)
                    .decompress(first_stream);
    ASSERT_TRUE(again.ok()) << name << ": " << again.status().str();
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(same_values(*again, *want)) << name;
  }
}

}  // namespace
}  // namespace aesz
