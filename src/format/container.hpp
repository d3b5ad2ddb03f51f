#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "predictors/error_bound.hpp"
#include "util/bytestream.hpp"
#include "util/dims.hpp"
#include "util/expected.hpp"

namespace aesz::format {

/// The container kernel: the preamble and sealed payload table the AEPC,
/// AETC and AEPR containers share (docs/ARCHITECTURE.md, "Container
/// preamble"). Every container leads with
///
///   magic u32 | version u8 | inner codec identity |
///   rank u8 | dims varint* | eb-mode u8 | eb-value f64
///
/// The identity is the inner codec's u32 stream magic for AEPC, and its
/// registry name blob (varint length + at most kMaxInnerName printable
/// bytes) for AETC and AEPR, which may wrap magic-less `parallel:`
/// streams. Every field after the bound value belongs to the format.

/// Longer inner names are hostile headers (mirrors service::kMaxCodecName).
constexpr std::size_t kMaxInnerName = 256;

struct Format {
  const char* tag;              // "AEPC", for error messages
  std::uint32_t magic;          // the tag's bytes, little-endian
  std::uint8_t version;         // what writers emit
  std::uint8_t legacy_version;  // pre-checksum, read-only
  bool named;                   // identity: name blob, else u32 magic
};

inline constexpr Format kAepc{"AEPC", 0x43504541u, 2, 1, false};
inline constexpr Format kAetc{"AETC", 0x43544541u, 2, 1, true};
inline constexpr Format kAepr{"AEPR", 0x52504541u, 2, 1, true};

/// A parsed preamble. `eb` is stored as read; check_bound() validates it
/// where each format's parse calls it.
struct Preamble {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint32_t inner_magic = 0;  // AEPC
  std::string inner;              // AETC, AEPR
  Dims dims;
  ErrorBound eb;
};

/// Serialize the preamble in format `f` at its current version. Throws
/// aesz::Error(kInvalidArgument) on a bad rank or inner name length.
void write_preamble(ByteWriter& w, const Format& f, const Preamble& p);

/// Fallible preamble parse: truncation is kTruncated, a foreign magic
/// kBadMagic, an unknown version, bad name, or hostile dims kBadHeader.
/// AEPC reads its u32 identity before validating the version; the named
/// formats validate the version before reading the name.
Status read_preamble(ByteReader& r, const Format& f, Preamble& out);

/// kBadHeader unless the stored bound has a known mode and, with
/// `usable`, a finite positive value (AETC, AEPR), otherwise a finite
/// one (AEPC).
Status check_bound(const ErrorBound& eb, bool usable);

/// The preamble of whichever container `stream` is (kBadMagic for none):
/// what CodecRegistry::identify(), the CLI and the server's rank lookup
/// read. The named formats' bound is checked too, as their parses do
/// next; AEPC reads its abs-bound before checking its bound.
Expected<Preamble> peek(std::span<const std::uint8_t> stream);

/// Slice `region` into the consecutive payloads of a sealed entry table
/// (zero-copy spans) and verify each present entry's CRC32C when `crcs`
/// is non-empty. The region must end on an entry boundary: mid-entry is
/// kTruncated, bytes past the last entry kCorruptStream. With
/// `allow_prefix` (AEPR) any non-empty whole-entry prefix is accepted;
/// otherwise (AEPC) every entry must be present. A checksum failure is
/// kChecksumMismatch naming `what` and the entry index.
Expected<std::vector<std::span<const std::uint8_t>>> slice_entries(
    std::span<const std::uint8_t> region, std::span<const std::size_t> lengths,
    std::span<const std::uint32_t> crcs, bool allow_prefix, const char* what);

}  // namespace aesz::format
