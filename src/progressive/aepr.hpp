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

namespace aesz::progressive {

/// Layered-bitstream container (version 2, "AEPR"). One artifact holds a
/// single field recoded into an ordered sequence of refinement layers,
/// where every *prefix* of layers decodes to a valid field honoring a
/// progressively tighter absolute bound. Layout (little-endian, varint =
/// LEB128, blob = varint length + bytes):
///
///   header   container preamble (identity = inner codec name blob) |
///            value-range f64 | layer count varint |
///            per layer: offset varint, length varint, abs-bound f64,
///            crc32c u32 (v2+)
///   payload  concatenated inner-codec layer streams
///
/// v2 added the per-layer CRC32C over each layer's payload bytes. The
/// checksums live in the TABLE, not the payload region, so truncation
/// stays a pure byte-slice: a truncate_to() prefix keeps every declared
/// layer's checksum and the reader verifies exactly the layers the
/// prefix carries (absent layers' checksums are simply unused). A flip
/// inside a present layer is kChecksumMismatch. v1 streams — no
/// checksums — still parse; writers emit v2.
///
/// `inner codec name` is the registry spelling of the codec every layer
/// payload was produced by. `eb-mode`/`eb-value` record the bound the
/// FINAL layer restores (the non-progressive guarantee); `value-range` is
/// the original field's value range, stored so rel/psnr target bounds can
/// be resolved at truncation time without decoding anything. Each layer
/// table entry records the absolute tolerance the stream guarantees after
/// decoding layers 0..i — bounds must be finite, positive, and STRICTLY
/// decreasing (each layer refines), and the last one equals the resolved
/// final bound.
///
/// Layer offsets are relative to the payload-region start and must tile
/// it contiguously in order (offset 0 is 0, each next offset is the
/// previous end). The payload region may end at ANY layer boundary: the
/// header always describes all declared layers, and a prefix produced by
/// truncate_to() — header plus the first k layers' bytes — is itself a
/// valid AEPR stream whose remaining layers are simply absent. A payload
/// ending mid-layer is kTruncated; bytes past the last declared layer are
/// kCorruptStream.
///
/// The preamble, the sealed-table slicing (format::slice_entries) and the
/// hostile-input rules shared with AEPC and AETC: format/container.hpp and
/// docs/ARCHITECTURE.md "Container preamble".

constexpr std::uint32_t kStreamMagic = format::kAepr.magic;
constexpr std::uint8_t kFormatVersion = format::kAepr.version;
constexpr std::uint8_t kFormatVersionV1 =
    format::kAepr.legacy_version;  // pre-checksum, read-only

/// Cap on the declared layer count. A geometric bound ladder reaches
/// float precision in far fewer steps; more layers is a hostile header.
constexpr std::size_t kMaxLayers = 64;

/// One layer-table entry: where the layer's inner-codec stream lives in
/// the payload region, and the absolute tolerance guaranteed after
/// decoding layers 0..this one. `payload` aliases the caller's bytes and
/// is empty for layers the (possibly truncated) stream does not carry.
struct LayerInfo {
  std::size_t offset = 0;  // relative to the payload-region start
  std::size_t length = 0;
  double abs_eb = 0.0;
  std::uint32_t crc = 0;  // CRC32C of the payload bytes (v2 streams)
  std::span<const std::uint8_t> payload;
};

/// Parsed and validated artifact: the preamble (`inner` names the codec of
/// every layer payload, `eb` is the bound the final layer restores, v1
/// layers carry no checksums), the value range, and the layer table.
/// `layers` always holds every DECLARED layer; `present` counts how many
/// of them this stream actually carries (a truncate_to() prefix keeps the
/// full table but fewer payloads).
struct StreamInfo : format::Preamble {
  double value_range = 0.0; // original field's range (resolves rel/psnr)
  std::vector<LayerInfo> layers;
  std::size_t present = 0;      // complete layers in this stream
  std::size_t header_bytes = 0; // payload region starts here
};

/// Serialize a complete artifact. Layer payload spans must be non-empty;
/// bounds must be strictly decreasing. Throws
/// aesz::Error(kInvalidArgument) on violations.
std::vector<std::uint8_t> write_stream(const std::string& inner,
                                       const Dims& dims, const ErrorBound& eb,
                                       double value_range,
                                       std::span<const LayerInfo> layers);

/// Strict parse: header + layer table validated, then the payload region
/// matched against the table. Truncation anywhere but an exact layer
/// boundary, lying offsets/lengths, overlapping layers, and
/// non-decreasing bounds all map to typed statuses before any payload is
/// touched.
Expected<StreamInfo> read_stream(std::span<const std::uint8_t> stream);

/// Byte length of the stream prefix carrying layers 0..k (header + the
/// first k+1 payloads). k must be < info.layers.size().
std::size_t prefix_bytes(const StreamInfo& info, std::size_t k);

/// Largest layer index k (< info.present) whose prefix fits in `budget`
/// bytes. A budget smaller than the coarsest layer still answers layer 0
/// — never an error (docs/PROTOCOL.md read-partial semantics).
std::size_t layers_for_budget(const StreamInfo& info, std::size_t budget);

/// Smallest layer index k (< info.present) whose recorded bound meets
/// `target` (resolved against the stream's stored value range). A target
/// tighter than the tightest present layer answers everything the stream
/// has — best effort, never an error. Unusable targets are
/// kInvalidArgument.
Expected<std::size_t> layers_for_bound(const StreamInfo& info,
                                       const ErrorBound& target);

}  // namespace aesz::progressive
