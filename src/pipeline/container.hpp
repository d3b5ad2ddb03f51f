#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "format/container.hpp"
#include "pipeline/sharder.hpp"
#include "predictors/error_bound.hpp"
#include "util/bytestream.hpp"
#include "util/dims.hpp"
#include "util/expected.hpp"

namespace aesz::pipeline {

/// Multi-chunk container stream format (version 2, "AEPC"). A container
/// wraps N independently compressed chunk streams of ANY registered codec
/// without touching the inner format — each payload is a complete,
/// self-describing stream of the inner codec. Layout (little-endian,
/// varint = LEB128):
///
///   header   container preamble (identity = inner codec magic u32) |
///            abs-bound f64 | chunk-rows varint | chunk-count varint |
///            per chunk: rows varint, byte-length varint, crc32c u32 (v2+)
///   payload  concatenated chunk payloads
///
/// v2 added the per-chunk CRC32C over each payload's bytes: a bit flip
/// inside a chunk is reported as kChecksumMismatch instead of being left
/// for the inner codec to (maybe) notice. v1 streams — no checksums —
/// still parse; writers emit v2.
///
/// `eb-mode`/`eb-value` record the bound the user requested on the WHOLE
/// field; `abs-bound` is the absolute tolerance the encoder resolved it to
/// and enforced on EVERY chunk (the max-over-chunks guarantee: if each
/// chunk satisfies the absolute bound, so does the assembled field).
/// Chunk geometry is validated against the declared dims before any
/// allocation. The preamble, the sealed-table slicing and the
/// hostile-input rules shared with AETC and AEPR: format/container.hpp
/// and docs/ARCHITECTURE.md "Container preamble".

constexpr std::uint32_t kContainerMagic = format::kAepc.magic;
constexpr std::uint8_t kContainerVersion = format::kAepc.version;
constexpr std::uint8_t kContainerVersionV1 = format::kAepc.legacy_version;

/// Parsed and validated container: the preamble (inner_magic, dims, eb),
/// chunk geometry, and zero-copy payload views into the caller's bytes.
struct ContainerInfo : format::Preamble {
  double abs_eb = 0.0;
  std::size_t chunk_rows = 0;
  std::vector<ChunkSpec> chunks;
  std::vector<std::span<const std::uint8_t>> payloads;  // one per chunk
};

/// Serialize the container: header + chunk table + concatenated payloads.
/// `chunks` and `payloads` must be parallel arrays in axis-0 order.
std::vector<std::uint8_t> write_container(
    std::uint32_t inner_magic, const Dims& dims, const ErrorBound& eb,
    double abs_eb, std::size_t chunk_rows,
    const std::vector<ChunkSpec>& chunks,
    const std::vector<std::vector<std::uint8_t>>& payloads);

/// Fallible parse of a container stream. Every malformed prefix —
/// truncation, wrong magic/version, hostile rank/dims, a chunk table that
/// does not exactly tile the field, payload lengths that overrun the
/// stream — maps to a typed status without reading out of bounds or
/// allocating unbounded memory.
Expected<ContainerInfo> read_container(std::span<const std::uint8_t> stream);

}  // namespace aesz::pipeline
