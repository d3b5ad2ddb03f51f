#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "format/container.hpp"
#include "predictors/error_bound.hpp"
#include "util/bytestream.hpp"
#include "util/dims.hpp"
#include "util/expected.hpp"

namespace aesz::temporal {

/// Appendable timestep-stream container (version 2, "AETC"). One artifact
/// holds a whole timestep sequence of a single field: a fixed header, then
/// one self-delimiting record per timestep, then a footer index that is
/// REWRITTEN on every append (the only mutable region of the file). Layout
/// (little-endian, varint = LEB128, blob = varint length + bytes):
///
///   header   container preamble (identity = inner codec name blob) |
///            gop varint
///   record*  marker u8 (0xA7) | mode u8 (0 intra, 1 residual) |
///            abs-bound f64 | payload blob | crc32c u32 (v2+)
///   footer   count varint | per record: mode u8, abs-bound f64,
///            offset varint, length varint |
///            footer-length u32 | footer magic u32 "AETI"
///
/// v2 added the per-record CRC32C (over mode | abs-bound | payload
/// bytes): recovery can now tell a TORN tail (record structurally
/// truncated — the interrupted append, benign) from a CORRUPT one
/// (record structurally complete but its bytes don't hash — reported as
/// kChecksumMismatch, never silently decoded). v1 streams still parse;
/// a re-opened v1 stream keeps appending v1 records so one artifact
/// never mixes record formats.
///
/// `inner codec name` is the registry spelling of the codec every payload
/// was produced by (including `parallel:<name>` container wrappers), so a
/// reader can rebuild the right decoder without magic-sniffing each record.
/// `eb-mode`/`eb-value` record the bound requested for EVERY timestep;
/// each record additionally stores the absolute tolerance that bound
/// resolved to for that timestep (rel/psnr bounds resolve against each
/// original frame's own value range). `gop` is the keyframe cadence the
/// writer enforced (0 = only timestep 0 is intra), recorded so seek cost
/// is inspectable; readers trust the per-record mode flags, not gop.
///
/// Append = overwrite the old footer with the new record, then write a
/// fresh footer. A crash mid-append therefore leaves a file whose footer
/// is missing or malformed but whose record sequence is intact up to the
/// interrupted write: records are self-delimiting (marker byte + fixed
/// fields + length-prefixed payload), so recover_stream() can walk them
/// from the header and return every timestep that was completely written.
/// The footer's first byte is a varint count — it can collide with a
/// record marker only if count == 0xA7, which the strict reader never
/// relies on: read_stream() locates the footer from the END of the file
/// (magic + length), validates every index entry against the actual
/// record bytes, and rejects any inconsistency with a typed status.
///
/// The preamble and the hostile-input rules shared with AEPC and AEPR:
/// format/container.hpp and docs/ARCHITECTURE.md "Container preamble".

constexpr std::uint32_t kStreamMagic = format::kAetc.magic;
constexpr std::uint32_t kIndexMagic = 0x49544541u;  // "AETI"
constexpr std::uint8_t kFormatVersion = format::kAetc.version;
constexpr std::uint8_t kFormatVersionV1 =
    format::kAetc.legacy_version;  // pre-checksum records
constexpr std::uint8_t kRecordMarker = 0xA7;

/// Timestep coding modes.
constexpr std::uint8_t kModeIntra = 0;
constexpr std::uint8_t kModeResidual = 1;

/// Cap on the keyframe cadence a header may declare; anything larger is a
/// hostile header, not a tuning choice.
constexpr std::size_t kMaxGop = std::size_t{1} << 20;

/// One parsed timestep record: coding mode, the absolute tolerance the
/// writer enforced on this timestep, and a zero-copy view of the inner
/// codec stream (an intra frame or a residual field). `offset`/`length`
/// locate the whole record (marker byte included) within the artifact —
/// what the footer index stores and what an appender needs to rebuild it.
struct RecordInfo {
  std::uint8_t mode = kModeIntra;
  double abs_eb = 0.0;
  std::span<const std::uint8_t> payload;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Parsed and validated artifact: the preamble (`inner` names the codec of
/// every payload; `version` is the record format an appender must keep
/// writing, so one artifact never mixes formats), the gop, and one
/// RecordInfo per complete timestep. Payload spans alias the caller's
/// bytes.
struct StreamInfo : format::Preamble {
  std::size_t gop = 0;
  std::vector<RecordInfo> records;
  /// Byte length of header + complete records (excludes the footer and
  /// any truncated tail) — the recovery point an appender resumes from.
  std::size_t body_bytes = 0;
};

/// Serialize the fixed header.
std::vector<std::uint8_t> write_stream_header(const std::string& inner,
                                              const Dims& dims,
                                              const ErrorBound& eb,
                                              std::size_t gop);

/// Parse one self-delimiting record at the reader's position, in the
/// record format of `version`. Fallible — recover_stream() treats a
/// kTruncated failure as the end of the record walk (torn tail) and
/// anything else as corruption; a v2 record whose bytes do not match its
/// checksum is kChecksumMismatch.
Status parse_record(ByteReader& r, RecordInfo& rec, std::uint8_t version);

/// Append one record to `body` (a header + records prefix, NO footer).
/// `version` selects the record format and must match the stream header's
/// declared version (v2 records carry a trailing CRC32C; v1 don't).
void append_record(std::vector<std::uint8_t>& body, std::uint8_t mode,
                   double abs_eb, std::span<const std::uint8_t> payload,
                   std::uint8_t version = kFormatVersion);

/// The footer bytes for the given records (their offset/length fields
/// must locate each record within the body); a complete artifact is
/// body + footer.
std::vector<std::uint8_t> write_footer(std::span<const RecordInfo> records);

/// Strict parse: header, footer located from the file tail, every index
/// entry cross-checked against the record bytes it points at. Any
/// malformation — truncation, bad magic/version, hostile dims or name,
/// offsets that do not tile the record region, index entries disagreeing
/// with record bytes — maps to a typed status.
Expected<StreamInfo> read_stream(std::span<const std::uint8_t> stream);

/// Recovery parse: validates the header, then walks the self-delimiting
/// records forward, IGNORING the footer entirely. Returns every complete
/// timestep; a truncated final append (or a stomped footer) simply ends
/// the walk. `body_bytes` marks where an appender should resume writing.
/// On a v2 stream, a record that is structurally COMPLETE but fails its
/// checksum is kChecksumMismatch — that is corruption, not a torn tail,
/// and resuming past it would silently lose the flipped bytes.
Expected<StreamInfo> recover_stream(std::span<const std::uint8_t> stream);

}  // namespace aesz::temporal
