#include "temporal/aetc.hpp"

#include <cmath>
#include <cstring>

#include "util/crc32c.hpp"

namespace aesz::temporal {

namespace {

/// Smallest possible record: marker + mode + abs f64 + 1-byte blob length
/// for an empty payload — any index length below this is corrupt.
constexpr std::size_t kMinRecordBytes = 1 + 1 + sizeof(double) + 1;

/// Trailer after the footer index: footer-length u32 + index magic u32.
constexpr std::size_t kFooterTailBytes = 2 * sizeof(std::uint32_t);

/// The AETC header: the shared preamble, its bound held to usable(),
/// then the gop.
Status read_header(ByteReader& r, StreamInfo& out) {
  if (Status s = format::read_preamble(r, format::kAetc, out); !s.ok())
    return s;
  if (Status s = format::check_bound(out.eb, /*usable=*/true); !s.ok())
    return s;
  std::uint64_t gop = 0;
  if (!r.try_get_varint(gop))
    return Status::error(ErrCode::kTruncated, "truncated gop");
  if (gop > kMaxGop)
    return Status::error(ErrCode::kBadHeader, "gop exceeds cap");
  out.gop = static_cast<std::size_t>(gop);
  return {};
}

/// The v2 per-record checksum: CRC32C over mode | abs-bound | payload —
/// every semantic byte of the record (marker and the blob length varint
/// are structural and validated by the parse itself).
std::uint32_t record_crc(std::uint8_t mode, double abs_eb,
                         std::span<const std::uint8_t> payload) {
  std::uint32_t c = util::crc32c({&mode, 1});
  c = util::crc32c({reinterpret_cast<const std::uint8_t*>(&abs_eb),
                    sizeof(abs_eb)},
                   c);
  return util::crc32c(payload, c);
}

}  // namespace

Status parse_record(ByteReader& r, RecordInfo& rec, std::uint8_t version) {
  std::uint8_t marker = 0;
  if (!r.try_get(marker))
    return Status::error(ErrCode::kTruncated, "truncated record marker");
  if (marker != kRecordMarker)
    return Status::error(ErrCode::kCorruptStream, "bad record marker");
  if (!r.try_get(rec.mode))
    return Status::error(ErrCode::kTruncated, "truncated record mode");
  if (rec.mode != kModeIntra && rec.mode != kModeResidual)
    return Status::error(ErrCode::kCorruptStream, "bad record mode");
  if (!r.try_get(rec.abs_eb))
    return Status::error(ErrCode::kTruncated, "truncated record bound");
  if (!std::isfinite(rec.abs_eb) || rec.abs_eb <= 0)
    return Status::error(ErrCode::kCorruptStream, "bad record bound");
  if (!r.try_get_blob(rec.payload))
    return Status::error(ErrCode::kTruncated, "truncated record payload");
  if (rec.payload.empty())
    return Status::error(ErrCode::kCorruptStream, "empty record payload");
  if (version >= kFormatVersion) {
    std::uint32_t stored = 0;
    if (!r.try_get(stored))
      return Status::error(ErrCode::kTruncated, "truncated record checksum");
    if (record_crc(rec.mode, rec.abs_eb, rec.payload) != stored)
      return Status::error(ErrCode::kChecksumMismatch,
                           "record checksum mismatch");
  }
  return {};
}

std::vector<std::uint8_t> write_stream_header(const std::string& inner,
                                              const Dims& dims,
                                              const ErrorBound& eb,
                                              std::size_t gop) {
  AESZ_CHECK_ARG(eb.usable(), "unusable error bound");
  AESZ_CHECK_ARG(gop <= kMaxGop, "gop exceeds cap");
  ByteWriter w;
  format::write_preamble(w, format::kAetc,
                         {.inner = inner, .dims = dims, .eb = eb});
  w.put_varint(gop);
  return w.take();
}

void append_record(std::vector<std::uint8_t>& body, std::uint8_t mode,
                   double abs_eb, std::span<const std::uint8_t> payload,
                   std::uint8_t version) {
  AESZ_CHECK_ARG(mode == kModeIntra || mode == kModeResidual,
                 "bad record mode");
  AESZ_CHECK_ARG(std::isfinite(abs_eb) && abs_eb > 0, "bad record bound");
  AESZ_CHECK_ARG(!payload.empty(), "empty record payload");
  AESZ_CHECK_ARG(version == kFormatVersion || version == kFormatVersionV1,
                 "bad record version");
  ByteWriter w;
  w.reserve(kMinRecordBytes + payload.size() + 8);
  w.put(kRecordMarker);
  w.put(mode);
  w.put(abs_eb);
  w.put_blob(payload);
  if (version >= kFormatVersion) w.put(record_crc(mode, abs_eb, payload));
  const auto& bytes = w.bytes();
  body.insert(body.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> write_footer(std::span<const RecordInfo> records) {
  ByteWriter w;
  w.put_varint(records.size());
  for (const RecordInfo& rec : records) {
    w.put(rec.mode);
    w.put(rec.abs_eb);
    w.put_varint(rec.offset);
    w.put_varint(rec.length);
  }
  const auto footer_len = static_cast<std::uint32_t>(w.size());
  w.put(footer_len);
  w.put(kIndexMagic);
  return w.take();
}

Expected<StreamInfo> read_stream(std::span<const std::uint8_t> stream) {
  StreamInfo info;
  ByteReader r(stream);
  if (Status s = read_header(r, info); !s.ok()) return s;
  const std::size_t header_end = r.pos();
  if (stream.size() < header_end + kFooterTailBytes)
    return Status::error(ErrCode::kTruncated, "missing AETC footer");
  std::uint32_t footer_len = 0, index_magic = 0;
  std::memcpy(&footer_len, stream.data() + stream.size() - kFooterTailBytes,
              sizeof(footer_len));
  std::memcpy(&index_magic, stream.data() + stream.size() - sizeof(index_magic),
              sizeof(index_magic));
  if (index_magic != kIndexMagic)
    return Status::error(ErrCode::kCorruptStream,
                         "missing AETC index magic (truncated append?)");
  if (footer_len > stream.size() - kFooterTailBytes - header_end)
    return Status::error(ErrCode::kCorruptStream, "footer length out of range");
  const std::size_t footer_start =
      stream.size() - kFooterTailBytes - footer_len;

  ByteReader fr(stream.subspan(footer_start, footer_len));
  std::uint64_t count = 0;
  if (!fr.try_get_varint(count))
    return Status::error(ErrCode::kTruncated, "truncated index count");
  // Each index entry is at least mode u8 + abs f64 + two 1-byte varints —
  // bound the count against the footer bytes BEFORE reserving.
  constexpr std::size_t kMinEntryBytes = 1 + sizeof(double) + 2;
  if (count > footer_len / kMinEntryBytes)
    return Status::error(ErrCode::kCorruptStream, "index count out of range");
  info.records.reserve(static_cast<std::size_t>(count));

  std::size_t prev_end = header_end;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint8_t mode = 0;
    double abs_eb = 0.0;
    std::uint64_t offset = 0, length = 0;
    if (!fr.try_get(mode) || !fr.try_get(abs_eb) ||
        !fr.try_get_varint(offset) || !fr.try_get_varint(length))
      return Status::error(ErrCode::kTruncated, "truncated index entry");
    // Records must tile [header_end, footer_start) exactly, in order — an
    // index pointing anywhere else (gaps, overlaps, the footer itself)
    // is corrupt.
    if (offset != prev_end || length < kMinRecordBytes ||
        length > footer_start - offset)
      return Status::error(ErrCode::kCorruptStream, "index entry out of range");
    ByteReader rr(stream.subspan(static_cast<std::size_t>(offset),
                                 static_cast<std::size_t>(length)));
    RecordInfo rec;
    if (Status s = parse_record(rr, rec, info.version); !s.ok()) return s;
    if (!rr.eof())
      return Status::error(ErrCode::kCorruptStream,
                           "record shorter than index entry");
    // The index duplicates mode/bound for O(1) seeks; both copies must
    // agree bit-for-bit or one of them was tampered with.
    if (rec.mode != mode || std::memcmp(&rec.abs_eb, &abs_eb,
                                        sizeof(abs_eb)) != 0)
      return Status::error(ErrCode::kCorruptStream,
                           "index entry disagrees with record");
    rec.offset = static_cast<std::size_t>(offset);
    rec.length = static_cast<std::size_t>(length);
    info.records.push_back(rec);
    prev_end = static_cast<std::size_t>(offset + length);
  }
  if (!fr.eof())
    return Status::error(ErrCode::kCorruptStream, "trailing bytes in index");
  if (prev_end != footer_start)
    return Status::error(ErrCode::kCorruptStream,
                         "unindexed bytes before footer");
  info.body_bytes = prev_end;
  return info;
}

Expected<StreamInfo> recover_stream(std::span<const std::uint8_t> stream) {
  StreamInfo info;
  ByteReader r(stream);
  if (Status s = read_header(r, info); !s.ok()) return s;
  std::size_t end = r.pos();
  while (end < stream.size() && stream[end] == kRecordMarker) {
    ByteReader rr(stream.subspan(end));
    RecordInfo rec;
    const Status s = parse_record(rr, rec, info.version);
    if (s.code == ErrCode::kChecksumMismatch) return s;  // corrupt, not torn
    if (!s.ok()) break;  // truncated tail (or footer bytes) — stop here
    rec.offset = end;
    rec.length = rr.pos();
    info.records.push_back(rec);
    end += rr.pos();
  }
  info.body_bytes = end;
  return info;
}

}  // namespace aesz::temporal
