#include "pipeline/sharder.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace aesz::pipeline {

namespace {

/// Elements per axis-0 plane (the slab stride).
std::size_t row_stride(const Dims& d) {
  std::size_t s = 1;
  for (int i = 1; i < d.rank; ++i) s *= d[i];
  return s;
}

}  // namespace

ChunkSpec make_chunk(const Dims& d, std::size_t row0, std::size_t rows) {
  const std::size_t stride = row_stride(d);
  ChunkSpec c{row0, rows, d, row0 * stride, rows * stride};
  c.dims.d[0] = rows;
  return c;
}

std::vector<ChunkSpec> make_chunks(const Dims& d, std::size_t chunk_rows) {
  AESZ_CHECK_ARG(d.rank >= 1 && d.rank <= 3, "field rank must be 1, 2, or 3");
  for (int i = 0; i < d.rank; ++i)
    AESZ_CHECK_ARG(d[i] > 0, "field has a zero extent along axis " +
                                 std::to_string(i));
  const std::size_t d0 = d[0];
  if (chunk_rows == 0 || chunk_rows >= d0) return {make_chunk(d, 0, d0)};
  std::vector<ChunkSpec> chunks;
  chunks.reserve(num_blocks(d0, chunk_rows));
  for (std::size_t row0 = 0; row0 < d0; row0 += chunk_rows)
    chunks.push_back(make_chunk(d, row0, std::min(chunk_rows, d0 - row0)));
  return chunks;
}

Field extract_chunk(const Field& f, const ChunkSpec& c) {
  Field out(c.dims);
  std::memcpy(out.data(), f.data() + c.elem0, c.elems * sizeof(float));
  return out;
}

void scatter_chunk(Field& f, const ChunkSpec& c, const Field& chunk) {
  AESZ_CHECK_STREAM(chunk.dims() == c.dims,
                    "decoded chunk shape " + chunk.dims().str() +
                        " does not match container entry " + c.dims.str());
  std::memcpy(f.data() + c.elem0, chunk.data(), c.elems * sizeof(float));
}

std::size_t auto_chunk_rows(const Dims& d) {
  constexpr std::size_t kTargetChunkBytes = std::size_t{1} << 20;  // 1 MiB
  const std::size_t plane_bytes = row_stride(d) * sizeof(float);
  return std::max<std::size_t>(1, kTargetChunkBytes / plane_bytes);
}

}  // namespace aesz::pipeline
