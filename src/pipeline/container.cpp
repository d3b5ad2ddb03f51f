#include "pipeline/container.hpp"

#include <cmath>

#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace aesz::pipeline {

std::vector<std::uint8_t> write_container(
    std::uint32_t inner_magic, const Dims& dims, const ErrorBound& eb,
    double abs_eb, std::size_t chunk_rows,
    const std::vector<ChunkSpec>& chunks,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  AESZ_CHECK_ARG(chunks.size() == payloads.size(),
                 "chunk/payload count mismatch");
  AESZ_CHECK_ARG(!chunks.empty(), "container needs at least one chunk");
  ByteWriter w;
  format::Preamble pre;
  pre.inner_magic = inner_magic;
  pre.dims = dims;
  pre.eb = eb;
  format::write_preamble(w, format::kAepc, pre);
  w.put(abs_eb);
  w.put_varint(chunk_rows);
  w.put_varint(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    w.put_varint(chunks[i].rows);
    w.put_varint(payloads[i].size());
    w.put(util::crc32c(payloads[i]));
  }
  for (const auto& p : payloads) w.put_bytes(p);
  return w.take();
}

Expected<ContainerInfo> read_container(
    std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  ContainerInfo info;
  if (Status s = format::read_preamble(r, format::kAepc, info); !s.ok())
    return s;
  const bool has_crc = info.version >= kContainerVersion;
  // mode | value | abs-bound are all read before any of them is checked.
  if (!r.try_get(info.abs_eb))
    return Status::error(ErrCode::kTruncated, "truncated bound fields");
  if (Status s = format::check_bound(info.eb, /*usable=*/false); !s.ok())
    return s;
  if (!std::isfinite(info.abs_eb) || info.abs_eb < 0)
    return Status::error(ErrCode::kBadHeader, "bad error-bound value");

  std::uint64_t chunk_rows = 0, chunk_count = 0;
  if (!r.try_get_varint(chunk_rows) || !r.try_get_varint(chunk_count))
    return Status::error(ErrCode::kTruncated, "truncated chunk table");
  // A chunk spans at least one axis-0 plane and its table entry takes at
  // least two bytes — both caps are checked BEFORE the table allocation so
  // a hostile count cannot trigger one.
  if (chunk_count == 0 || chunk_count > info.dims[0] ||
      chunk_count > r.remaining() / 2)
    return Status::error(ErrCode::kBadHeader, "bad chunk count");
  info.chunk_rows = static_cast<std::size_t>(chunk_rows);

  info.chunks.reserve(static_cast<std::size_t>(chunk_count));
  std::vector<std::size_t> lengths;
  lengths.reserve(static_cast<std::size_t>(chunk_count));
  std::vector<std::uint32_t> crcs;
  if (has_crc) crcs.reserve(static_cast<std::size_t>(chunk_count));
  std::uint64_t row0 = 0, payload_total = 0;
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    std::uint64_t rows = 0, nbytes = 0;
    if (!r.try_get_varint(rows) || !r.try_get_varint(nbytes))
      return Status::error(ErrCode::kTruncated, "truncated chunk table");
    if (has_crc) {
      std::uint32_t crc = 0;
      if (!r.try_get(crc))
        return Status::error(ErrCode::kTruncated, "truncated chunk table");
      crcs.push_back(crc);
    }
    if (rows == 0 || rows > info.dims[0] - row0)
      return Status::error(ErrCode::kCorruptStream,
                           "chunk table does not tile the field");
    // Bounds-before-accumulate: nbytes is compared against the remaining
    // stream bytes, so payload_total can never overflow.
    if (nbytes > r.remaining() || payload_total > r.remaining() - nbytes)
      return Status::error(ErrCode::kTruncated,
                           "chunk payload exceeds stream");
    info.chunks.push_back(make_chunk(info.dims, static_cast<std::size_t>(row0),
                                     static_cast<std::size_t>(rows)));
    lengths.push_back(static_cast<std::size_t>(nbytes));
    row0 += rows;
    payload_total += nbytes;
  }
  if (row0 != info.dims[0])
    return Status::error(ErrCode::kCorruptStream,
                         "chunk table does not cover the field");
  auto payloads = format::slice_entries(r.rest(), lengths, crcs,
                                        /*allow_prefix=*/false, "chunk");
  if (!payloads.ok()) return payloads.status();
  info.payloads = std::move(*payloads);
  return info;
}

}  // namespace aesz::pipeline
