#pragma once

#include <cstddef>
#include <vector>

#include "data/field.hpp"
#include "util/dims.hpp"

namespace aesz::pipeline {

/// One shard of a field: a contiguous slab of `rows` planes along the
/// slowest-varying axis (axis 0), starting at plane `row0`. Because fields
/// are row-major with the last dimension contiguous, a slab is a single
/// contiguous range of `rows * row_stride` floats — extraction and
/// scatter-back are plain memcpy, no gather loops.
struct ChunkSpec {
  std::size_t row0 = 0;   // first plane along axis 0
  std::size_t rows = 0;   // number of planes in this chunk
  Dims dims;              // chunk shape: {rows, d1[, d2]} at the field rank
  std::size_t elem0 = 0;  // linear element offset of the chunk in the field
  std::size_t elems = 0;  // element count (rows * row_stride)
};

/// The slab of `rows` planes of `d` starting at plane `row0`.
ChunkSpec make_chunk(const Dims& d, std::size_t row0, std::size_t rows);

/// Split `d` (rank 1/2/3) into slabs of `chunk_rows` planes along axis 0;
/// the last chunk keeps the remainder. `chunk_rows == 0` or >= d[0] yields
/// a single chunk covering the whole field. Throws
/// aesz::Error(kInvalidArgument) on degenerate dims (rank outside [1,3] or
/// a zero extent).
std::vector<ChunkSpec> make_chunks(const Dims& d, std::size_t chunk_rows);

/// Copy chunk `c` of `f` into its own Field (contiguous slab copy).
Field extract_chunk(const Field& f, const ChunkSpec& c);

/// Copy a decoded chunk back into the assembled field at its slab offset.
/// Throws aesz::Error(kCorruptStream) when `chunk`'s dims disagree with
/// the spec (a container header lying about its payload).
void scatter_chunk(Field& f, const ChunkSpec& c, const Field& chunk);

/// Default slab thickness for a field of shape `d`: targets ~1 MiB of
/// f32s per chunk (fine enough for load balance across many workers,
/// coarse enough that per-task overhead is negligible), never zero.
/// Deliberately a function of the dims ALONE — never of the worker count
/// — so containers compressed with default chunking are byte-identical
/// for every thread count.
std::size_t auto_chunk_rows(const Dims& d);

}  // namespace aesz::pipeline
