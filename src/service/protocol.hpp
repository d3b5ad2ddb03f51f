#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/field.hpp"
#include "predictors/error_bound.hpp"
#include "util/dims.hpp"
#include "util/expected.hpp"

namespace aesz::service {

/// Frame protocol (version 1) of the compression service. A *frame* is the
/// unit a Transport delivers: the transport prefixes each frame with a u32
/// byte length (see transport.hpp); everything below describes the frame
/// body. Layout (little-endian, varint = LEB128, blob = varint length +
/// bytes — the ByteWriter/ByteReader conventions shared with the codec
/// stream formats):
///
///   magic u32 "AESF" | version u8 | opcode u8 | opcode-specific body
///
/// Request bodies:
///   compress        codec blob | eb-mode u8 | eb-value f64 |
///                   rank u8 | dims varint* | field blob (raw f32, row-major)
///   decompress      codec blob (empty = identify by stream magic) |
///                   stream blob
///   list-codecs     (empty)
///   stats           (empty)
///   open-stream     codec blob | eb-mode u8 | eb-value f64 |
///                   rank u8 | dims varint* | gop varint
///   append-timestep session-id u64 | field blob (raw f32, row-major,
///                   must match the session's dims)
///   read-timestep   session-id u64 | timestep varint
///   close-stream    session-id u64
///   metrics         (empty)
///   read-partial    stream blob (an AEPR progressive artifact) |
///                   mode u8 (0 byte budget / 1 target bound) |
///                   mode 0: budget varint
///                   mode 1: bound-mode u8 | bound-value f64
///   deadline        deadline-ms varint | inner request frame blob (a
///                   complete frame body of any OTHER request op)
///
/// Response bodies:
///   compress        abs-bound f64 (the bound the server resolved and
///                   enforced) | stream blob
///   decompress      rank u8 | dims varint* | field blob (raw f32)
///   list-codecs     count varint | per codec: name blob, error-bounded u8,
///                   magic u32, description blob
///   stats           count varint | per counter: name blob, value varint
///   open-stream     session-id u64
///   append-timestep timestep varint | mode u8 (0 intra / 1 residual) |
///                   abs-bound f64 | stored-bytes varint
///   read-timestep   rank u8 | dims varint* | field blob (raw f32)
///   close-stream    timesteps varint | artifact blob (the complete AETC
///                   container — see src/temporal/aetc.hpp)
///   metrics         text blob (UTF-8 Prometheus text exposition, see
///                   docs/OBSERVABILITY.md)
///   read-partial    achieved-bound f64 | layers varint |
///                   total-layers varint | stream blob (a valid AEPR
///                   prefix carrying the served layers)
///   error           err-code u8 (ErrCode) | message blob
///
/// Stream sessions (protocol rev 2026-08, wire version unchanged — the
/// ops are additive and a v1 peer answers them with a typed kBadHeader
/// error): open-stream creates per-session state on the server and hands
/// back a server-unique session id; append-timestep/read-timestep/
/// close-stream address that id. A request naming an unknown, closed, or
/// idle-reaped id gets kNoSession. close-stream returns the complete
/// appendable artifact and frees the session. See docs/PROTOCOL.md for
/// the lifecycle state diagram.
///
/// Hostile-input discipline (same as the container/codec header parsers):
/// every length is bounds-validated against the remaining frame bytes
/// before any allocation, dims are checked against sz::kMaxTotalElems with
/// overflow-safe arithmetic, parse_* returns typed Expected statuses and
/// never throws, and a frame with trailing bytes after its body is
/// kCorruptStream. Parsed structs hold zero-copy spans into the caller's
/// frame bytes (nothing is copied until the server/client builds a Field).

/// "AESF" in little-endian byte order.
constexpr std::uint32_t kFrameMagic = 0x46534541u;
constexpr std::uint8_t kProtocolVersion = 1;

/// Bytes of the fixed frame-body header (magic + version + opcode).
constexpr std::size_t kFrameHeaderBytes = 6;

/// Upper bound on a single frame's byte length. Transports reject a larger
/// declared length before allocating; at 4 bytes/element this caps a served
/// field at 256 Mi elements per request, far above the bench/test sizes.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

/// Frame-integrity flag (protocol rev 2026-08, wire version unchanged):
/// bit 31 of the transport's u32 length prefix. When set, the frame body
/// is followed by a 4-byte CRC32C trailer over the body bytes; the length
/// field (low 31 bits) still counts the BODY only. The flag is opt-in per
/// sender and sticky per connection on the server: once a peer sends one
/// checksummed frame, every response to that peer carries a trailer too.
/// A legacy peer never sets the bit and never sees a trailer — byte-level
/// compatibility is preserved. A trailer that does not match is
/// kChecksumMismatch, NOT a framing error: the length field was intact,
/// so the connection stays resynchronized and usable.
constexpr std::uint32_t kFrameCrcFlag = 0x80000000u;
constexpr std::uint32_t kFrameLenMask = 0x7FFFFFFFu;
constexpr std::size_t kFrameCrcBytes = 4;

/// The transport's bytes around one frame body: the u32 little-endian
/// length prefix (bit 31 = kFrameCrcFlag) and, for a checksummed frame,
/// the CRC32C trailer over the body. On the wire a frame is
/// prefix | body | the first trailer_bytes bytes of trailer.
struct FrameEnvelope {
  std::uint8_t prefix[4] = {};
  std::uint8_t trailer[kFrameCrcBytes] = {};
  std::size_t trailer_bytes = 0;  // kFrameCrcBytes when checksummed, else 0

  std::size_t wire_bytes(std::size_t body_bytes) const {
    return sizeof prefix + body_bytes + trailer_bytes;
  }
};

/// The envelope every sender puts around `body` (the caller checks the
/// kMaxFrameBytes cap).
FrameEnvelope frame_envelope(std::span<const std::uint8_t> body,
                             bool with_crc);

/// The frame's whole wire image, prefix | body | trailer, in one buffer:
/// what a sender of raw bytes (FaultyTransport, tests) puts on the wire.
std::vector<std::uint8_t> frame_wire(std::span<const std::uint8_t> body,
                                     bool with_crc);

/// Cap on codec-name length inside a frame — a name longer than this is a
/// hostile frame, not a registry lookup.
constexpr std::size_t kMaxCodecName = 256;

/// Frame opcodes. Requests have the high bit clear, responses set;
/// kErrorResponse answers any request the server could not serve.
enum class Op : std::uint8_t {
  kCompressRequest = 0x01,
  kDecompressRequest = 0x02,
  kListCodecsRequest = 0x03,
  kStatsRequest = 0x04,
  kOpenStreamRequest = 0x05,
  kAppendTimestepRequest = 0x06,
  kReadTimestepRequest = 0x07,
  kCloseStreamRequest = 0x08,
  kMetricsRequest = 0x09,
  kReadPartialRequest = 0x0A,
  kDeadlineRequest = 0x0B,
  kCompressResponse = 0x81,
  kDecompressResponse = 0x82,
  kListCodecsResponse = 0x83,
  kStatsResponse = 0x84,
  kOpenStreamResponse = 0x85,
  kAppendTimestepResponse = 0x86,
  kReadTimestepResponse = 0x87,
  kCloseStreamResponse = 0x88,
  kMetricsResponse = 0x89,
  kReadPartialResponse = 0x8A,
  kErrorResponse = 0xFF,
};

const char* op_name(Op op);

// ---------------------------------------------------------------- frames --

struct CompressRequest {
  std::string codec;
  ErrorBound eb;
  Dims dims;
  /// Raw little-endian f32 field bytes; size == dims.total() * 4 (checked).
  std::span<const std::uint8_t> field;
};

struct DecompressRequest {
  std::string codec;  // empty = server identifies by stream magic
  std::span<const std::uint8_t> stream;
};

struct CompressResponse {
  double abs_eb = 0.0;  // the absolute bound the server resolved/enforced
  std::span<const std::uint8_t> stream;
};

struct DecompressResponse {
  Dims dims;
  std::span<const std::uint8_t> field;  // raw f32, size == total() * 4
};

struct CodecSummary {
  std::string name;
  bool error_bounded = false;
  std::uint32_t magic = 0;
  std::string description;
};

/// Named monotonic counters — an extensible stats surface: servers may add
/// counters without a protocol bump, clients look up by name.
struct StatsResponse {
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// Value of a counter, or 0 when the server does not report it.
  std::uint64_t get(const std::string& name) const;
};

struct ErrorResponse {
  ErrCode code = ErrCode::kInternal;
  std::string message;
};

// ------------------------------------------------------ stream sessions --

struct OpenStreamRequest {
  std::string codec;
  ErrorBound eb;
  Dims dims;
  std::uint64_t gop = 8;  // keyframe cadence; 0 = single leading keyframe
};

struct OpenStreamResponse {
  std::uint64_t session_id = 0;
};

struct AppendTimestepRequest {
  std::uint64_t session_id = 0;
  /// Raw little-endian f32 field bytes; the parser checks alignment (a
  /// whole number of floats), the server checks the size against the
  /// session's dims.
  std::span<const std::uint8_t> field;
};

struct AppendTimestepResponse {
  std::uint64_t timestep = 0;
  bool residual = false;   // how the server coded this timestep
  double abs_eb = 0.0;     // the absolute tolerance enforced on it
  std::uint64_t stored_bytes = 0;  // record bytes it added to the artifact
};

struct ReadTimestepRequest {
  std::uint64_t session_id = 0;
  std::uint64_t timestep = 0;
};

struct ReadTimestepResponse {
  Dims dims;
  std::span<const std::uint8_t> field;  // raw f32, size == total() * 4
};

struct CloseStreamRequest {
  std::uint64_t session_id = 0;
};

struct CloseStreamResponse {
  std::uint64_t timesteps = 0;
  /// The complete AETC artifact (header + records + footer index).
  std::span<const std::uint8_t> artifact;
};

// ------------------------------------------------------------ progressive --

/// How a read-partial request states its fidelity target.
enum class PartialMode : std::uint8_t {
  kByteBudget = 0,  // largest layer prefix whose bytes fit the budget
  kTargetBound = 1, // smallest layer prefix meeting the bound
};

/// Byte-budgeted / bound-targeted retrieval from an AEPR progressive
/// stream (protocol rev 2026-08, wire version unchanged — additive op; a
/// pre-progressive peer answers 0x0A with a typed kBadHeader error). The
/// server never decodes anything: it parses the layer table and answers
/// with the stream PREFIX carrying the selected layers — itself a valid
/// AEPR stream the client decodes locally. A budget smaller than the
/// coarsest layer answers that layer anyway (never an error); a bound
/// tighter than the stream's final layer answers the whole stream.
struct ReadPartialRequest {
  std::span<const std::uint8_t> stream;
  PartialMode mode = PartialMode::kByteBudget;
  std::uint64_t budget = 0;  // kByteBudget: max response stream bytes
  ErrorBound bound;          // kTargetBound: the tolerance to reach
};

struct ReadPartialResponse {
  double abs_eb = 0.0;             // the bound the served prefix honors
  std::uint64_t layers = 0;        // layers the prefix carries
  std::uint64_t total_layers = 0;  // layers the full stream declares
  std::span<const std::uint8_t> stream;  // the valid AEPR prefix
};

// -------------------------------------------------------------- deadline --

/// Deadline envelope (protocol rev 2026-08, wire version unchanged —
/// additive op; a pre-deadline peer answers 0x0B with a typed kBadHeader
/// error). Wraps any OTHER request frame with a time budget in
/// milliseconds, measured from the moment the server admits the request.
/// A request whose budget is already exhausted when a worker picks it up
/// is answered kTimeout without executing — the deadline bounds queue
/// wait, not execution, so a request that started in time still completes.
/// The response is whatever the inner request would have answered (no
/// response envelope). Enveloped requests always take the direct worker
/// path: they are not batch-coalesced with bare AE-SZ compress requests.
struct DeadlineRequest {
  std::uint64_t deadline_ms = 0;  // 0 = no deadline (envelope is a no-op)
  std::span<const std::uint8_t> inner;  // a complete request frame
};

// --------------------------------------------------------------- metrics --

/// Prometheus text exposition of the server's MetricsRegistry (additive op
/// like the stream-session ops: wire version unchanged, a pre-metrics v1
/// peer answers 0x09 with a typed kBadHeader error). The stats frame stays
/// the compact machine-readable surface; this one is for scrapers.
struct MetricsResponse {
  std::span<const std::uint8_t> text;  // UTF-8 exposition body

  std::string text_str() const {
    return std::string(reinterpret_cast<const char*>(text.data()),
                       text.size());
  }
};

// -------------------------------------------------------------- encoding --

std::vector<std::uint8_t> encode_compress_request(const CompressRequest& r);
std::vector<std::uint8_t> encode_decompress_request(const DecompressRequest& r);
std::vector<std::uint8_t> encode_list_codecs_request();
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_compress_response(const CompressResponse& r);
std::vector<std::uint8_t> encode_decompress_response(
    const DecompressResponse& r);
std::vector<std::uint8_t> encode_list_codecs_response(
    const std::vector<CodecSummary>& codecs);
std::vector<std::uint8_t> encode_stats_response(const StatsResponse& r);
std::vector<std::uint8_t> encode_error_response(const ErrorResponse& r);
std::vector<std::uint8_t> encode_open_stream_request(
    const OpenStreamRequest& r);
std::vector<std::uint8_t> encode_open_stream_response(
    const OpenStreamResponse& r);
std::vector<std::uint8_t> encode_append_timestep_request(
    const AppendTimestepRequest& r);
std::vector<std::uint8_t> encode_append_timestep_response(
    const AppendTimestepResponse& r);
std::vector<std::uint8_t> encode_read_timestep_request(
    const ReadTimestepRequest& r);
std::vector<std::uint8_t> encode_read_timestep_response(
    const ReadTimestepResponse& r);
std::vector<std::uint8_t> encode_close_stream_request(
    const CloseStreamRequest& r);
std::vector<std::uint8_t> encode_close_stream_response(
    const CloseStreamResponse& r);
std::vector<std::uint8_t> encode_metrics_request();
std::vector<std::uint8_t> encode_metrics_response(const MetricsResponse& r);
std::vector<std::uint8_t> encode_read_partial_request(
    const ReadPartialRequest& r);
std::vector<std::uint8_t> encode_read_partial_response(
    const ReadPartialResponse& r);
std::vector<std::uint8_t> encode_deadline_request(const DeadlineRequest& r);

// --------------------------------------------------------------- parsing --

/// Validate the 6-byte frame header and return the opcode. Statuses:
/// kTruncated (short frame), kBadMagic, kBadHeader (version or unknown
/// opcode).
Expected<Op> peek_op(std::span<const std::uint8_t> frame);

/// Each parse validates the header (magic/version/expected opcode), then
/// the body, then that no trailing bytes remain. Spans in the result alias
/// `frame` — the caller keeps the bytes alive.
Expected<CompressRequest> parse_compress_request(
    std::span<const std::uint8_t> frame);
Expected<DecompressRequest> parse_decompress_request(
    std::span<const std::uint8_t> frame);
Expected<CompressResponse> parse_compress_response(
    std::span<const std::uint8_t> frame);
Expected<DecompressResponse> parse_decompress_response(
    std::span<const std::uint8_t> frame);
Expected<std::vector<CodecSummary>> parse_list_codecs_response(
    std::span<const std::uint8_t> frame);
Expected<StatsResponse> parse_stats_response(
    std::span<const std::uint8_t> frame);
Expected<ErrorResponse> parse_error_response(
    std::span<const std::uint8_t> frame);
Expected<OpenStreamRequest> parse_open_stream_request(
    std::span<const std::uint8_t> frame);
Expected<OpenStreamResponse> parse_open_stream_response(
    std::span<const std::uint8_t> frame);
Expected<AppendTimestepRequest> parse_append_timestep_request(
    std::span<const std::uint8_t> frame);
Expected<AppendTimestepResponse> parse_append_timestep_response(
    std::span<const std::uint8_t> frame);
Expected<ReadTimestepRequest> parse_read_timestep_request(
    std::span<const std::uint8_t> frame);
Expected<ReadTimestepResponse> parse_read_timestep_response(
    std::span<const std::uint8_t> frame);
Expected<CloseStreamRequest> parse_close_stream_request(
    std::span<const std::uint8_t> frame);
Expected<CloseStreamResponse> parse_close_stream_response(
    std::span<const std::uint8_t> frame);
Expected<MetricsResponse> parse_metrics_response(
    std::span<const std::uint8_t> frame);
Expected<ReadPartialRequest> parse_read_partial_request(
    std::span<const std::uint8_t> frame);
Expected<ReadPartialResponse> parse_read_partial_response(
    std::span<const std::uint8_t> frame);
Expected<DeadlineRequest> parse_deadline_request(
    std::span<const std::uint8_t> frame);

/// For a session-scoped request (append/read/close-stream), the session
/// id its body leads with — what the server's submit() path needs to
/// serialize per-session work without parsing the whole frame. Any other
/// opcode (or a body too short for the id) is a typed error.
Expected<std::uint64_t> peek_session_id(std::span<const std::uint8_t> frame);

/// The raw-f32 field blob frames carry: a zero-copy view of `f`'s values,
/// and a Field copied out of a parsed blob (the parsers have checked that
/// `blob.size() == dims.total() * 4`).
std::span<const std::uint8_t> field_blob(const Field& f);
Field field_from_blob(const Dims& dims, std::span<const std::uint8_t> blob);

}  // namespace aesz::service
