#include "progressive/aepr.hpp"

#include <cmath>

#include "sz/common.hpp"
#include "util/crc32c.hpp"

namespace aesz::progressive {

std::vector<std::uint8_t> write_stream(const std::string& inner,
                                       const Dims& dims, const ErrorBound& eb,
                                       double value_range,
                                       std::span<const LayerInfo> layers) {
  AESZ_CHECK_ARG(eb.usable(), "unusable error bound");
  AESZ_CHECK_ARG(std::isfinite(value_range) && value_range >= 0,
                 "bad value range");
  AESZ_CHECK_ARG(!layers.empty() && layers.size() <= kMaxLayers,
                 "layer count out of range");
  ByteWriter w;
  format::write_preamble(w, format::kAepr,
                         {.inner = inner, .dims = dims, .eb = eb});
  w.put(value_range);
  w.put_varint(layers.size());
  std::size_t offset = 0;
  double prev_bound = 0.0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerInfo& layer = layers[i];
    AESZ_CHECK_ARG(!layer.payload.empty(), "empty layer payload");
    AESZ_CHECK_ARG(std::isfinite(layer.abs_eb) && layer.abs_eb > 0,
                   "bad layer bound");
    AESZ_CHECK_ARG(i == 0 || layer.abs_eb < prev_bound,
                   "layer bounds must strictly decrease");
    w.put_varint(offset);
    w.put_varint(layer.payload.size());
    w.put(layer.abs_eb);
    w.put(util::crc32c(layer.payload));
    offset += layer.payload.size();
    prev_bound = layer.abs_eb;
  }
  w.reserve(offset);
  for (const LayerInfo& layer : layers) w.put_bytes(layer.payload);
  return w.take();
}

Expected<StreamInfo> read_stream(std::span<const std::uint8_t> stream) {
  StreamInfo info;
  ByteReader r(stream);
  if (Status s = format::read_preamble(r, format::kAepr, info); !s.ok())
    return s;
  if (Status s = format::check_bound(info.eb, /*usable=*/true); !s.ok())
    return s;
  if (!r.try_get(info.value_range))
    return Status::error(ErrCode::kTruncated, "truncated value range");
  if (!std::isfinite(info.value_range) || info.value_range < 0)
    return Status::error(ErrCode::kBadHeader, "bad value range");

  // The layer table: count capped, offsets tiling the payload region
  // contiguously in order, lengths nonzero, bounds finite/positive and
  // strictly decreasing — all before any payload byte is touched.
  std::uint64_t count = 0;
  if (!r.try_get_varint(count))
    return Status::error(ErrCode::kTruncated, "truncated layer count");
  if (count == 0 || count > kMaxLayers)
    return Status::error(ErrCode::kBadHeader, "layer count out of range");
  const bool has_crc = info.version >= kFormatVersion;
  info.layers.resize(static_cast<std::size_t>(count));
  std::vector<std::size_t> lengths;
  std::vector<std::uint32_t> crcs;
  std::size_t prev_end = 0;
  for (std::size_t i = 0; i < info.layers.size(); ++i) {
    LayerInfo& layer = info.layers[i];
    std::uint64_t offset = 0, length = 0;
    if (!r.try_get_varint(offset) || !r.try_get_varint(length) ||
        !r.try_get(layer.abs_eb) || (has_crc && !r.try_get(layer.crc)))
      return Status::error(ErrCode::kTruncated, "truncated layer entry");
    // Layers must tile the payload region exactly, in order — a table
    // pointing anywhere else (gaps, overlaps, backwards) is corrupt.
    if (offset != prev_end || length == 0)
      return Status::error(ErrCode::kCorruptStream,
                           "layer table does not tile the payload");
    if (length > sz::kMaxTotalElems * sizeof(float))
      return Status::error(ErrCode::kCorruptStream, "layer length overflow");
    if (!std::isfinite(layer.abs_eb) || layer.abs_eb <= 0)
      return Status::error(ErrCode::kCorruptStream, "bad layer bound");
    if (i > 0 && layer.abs_eb >= info.layers[i - 1].abs_eb)
      return Status::error(ErrCode::kCorruptStream,
                           "layer bounds must strictly decrease");
    layer.offset = static_cast<std::size_t>(offset);
    layer.length = static_cast<std::size_t>(length);
    prev_end = layer.offset + layer.length;
    lengths.push_back(layer.length);
    if (has_crc) crcs.push_back(layer.crc);
  }
  info.header_bytes = r.pos();

  // The payload region may end at any layer boundary (a truncate_to()
  // prefix); only the layers it carries are checksum-verified.
  auto payloads = format::slice_entries(r.rest(), lengths, crcs,
                                        /*allow_prefix=*/true, "layer");
  if (!payloads.ok()) return payloads.status();
  info.present = payloads->size();
  for (std::size_t i = 0; i < info.present; ++i)
    info.layers[i].payload = (*payloads)[i];
  return info;
}

std::size_t prefix_bytes(const StreamInfo& info, std::size_t k) {
  AESZ_CHECK_ARG(k < info.layers.size(), "layer index out of range");
  return info.header_bytes + info.layers[k].offset + info.layers[k].length;
}

std::size_t layers_for_budget(const StreamInfo& info, std::size_t budget) {
  std::size_t k = 0;
  for (std::size_t i = 1; i < info.present; ++i) {
    if (prefix_bytes(info, i) > budget) break;
    k = i;
  }
  return k;
}

Expected<std::size_t> layers_for_bound(const StreamInfo& info,
                                       const ErrorBound& target) {
  if (!target.usable())
    return Status::error(ErrCode::kInvalidArgument,
                         "unusable target bound " + target.str());
  const double abs = target.absolute(info.value_range);
  for (std::size_t i = 0; i < info.present; ++i)
    if (info.layers[i].abs_eb <= abs) return i;
  // Tighter than anything present: best effort, serve the whole stream.
  return info.present - 1;
}

}  // namespace aesz::progressive
