#include "service/protocol.hpp"

#include <cmath>
#include <cstring>

#include "sz/common.hpp"
#include "temporal/aetc.hpp"
#include "util/bytestream.hpp"

namespace aesz::service {

const char* op_name(Op op) {
  switch (op) {
    case Op::kCompressRequest: return "compress-request";
    case Op::kDecompressRequest: return "decompress-request";
    case Op::kListCodecsRequest: return "list-codecs-request";
    case Op::kStatsRequest: return "stats-request";
    case Op::kOpenStreamRequest: return "open-stream-request";
    case Op::kAppendTimestepRequest: return "append-timestep-request";
    case Op::kReadTimestepRequest: return "read-timestep-request";
    case Op::kCloseStreamRequest: return "close-stream-request";
    case Op::kMetricsRequest: return "metrics-request";
    case Op::kReadPartialRequest: return "read-partial-request";
    case Op::kDeadlineRequest: return "deadline-request";
    case Op::kCompressResponse: return "compress-response";
    case Op::kDecompressResponse: return "decompress-response";
    case Op::kListCodecsResponse: return "list-codecs-response";
    case Op::kStatsResponse: return "stats-response";
    case Op::kOpenStreamResponse: return "open-stream-response";
    case Op::kAppendTimestepResponse: return "append-timestep-response";
    case Op::kReadTimestepResponse: return "read-timestep-response";
    case Op::kCloseStreamResponse: return "close-stream-response";
    case Op::kMetricsResponse: return "metrics-response";
    case Op::kReadPartialResponse: return "read-partial-response";
    case Op::kErrorResponse: return "error-response";
  }
  return "?";
}

std::uint64_t StatsResponse::get(const std::string& name) const {
  for (const auto& [k, v] : counters)
    if (k == name) return v;
  return 0;
}

namespace {

bool known_op(std::uint8_t raw) {
  switch (static_cast<Op>(raw)) {
    case Op::kCompressRequest:
    case Op::kDecompressRequest:
    case Op::kListCodecsRequest:
    case Op::kStatsRequest:
    case Op::kOpenStreamRequest:
    case Op::kAppendTimestepRequest:
    case Op::kReadTimestepRequest:
    case Op::kCloseStreamRequest:
    case Op::kMetricsRequest:
    case Op::kReadPartialRequest:
    case Op::kDeadlineRequest:
    case Op::kCompressResponse:
    case Op::kDecompressResponse:
    case Op::kListCodecsResponse:
    case Op::kStatsResponse:
    case Op::kOpenStreamResponse:
    case Op::kAppendTimestepResponse:
    case Op::kReadTimestepResponse:
    case Op::kCloseStreamResponse:
    case Op::kMetricsResponse:
    case Op::kReadPartialResponse:
    case Op::kErrorResponse:
      return true;
  }
  return false;
}

void write_header(ByteWriter& w, Op op) {
  w.put(kFrameMagic);
  w.put(kProtocolVersion);
  w.put(static_cast<std::uint8_t>(op));
}

/// Validate the frame header (via the public peek_op, so the two paths
/// can never drift) and return a reader positioned at the body.
Expected<ByteReader> open_frame(std::span<const std::uint8_t> frame,
                                Op expected) {
  const auto op = peek_op(frame);
  if (!op.ok()) return op.status();
  if (*op != expected)
    return Status::error(ErrCode::kBadHeader,
                         std::string("expected ") + op_name(expected) +
                             ", got " + op_name(*op));
  return ByteReader(frame.subspan(kFrameHeaderBytes));
}

/// A frame body must end exactly where its last field does — trailing
/// bytes mean a framing bug or a hostile sender.
Status close_frame(const ByteReader& r) {
  if (!r.eof())
    return Status::error(ErrCode::kCorruptStream,
                         "trailing bytes after frame body");
  return {};
}

Status read_string(ByteReader& r, std::size_t cap, const char* what,
                   std::string& out) {
  std::span<const std::uint8_t> bytes;
  if (!r.try_get_blob(bytes))
    return Status::error(ErrCode::kTruncated,
                         std::string("truncated ") + what);
  if (bytes.size() > cap)
    return Status::error(ErrCode::kBadHeader,
                         std::string(what) + " exceeds " +
                             std::to_string(cap) + " bytes");
  out.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return {};
}

Status read_error_bound(ByteReader& r, ErrorBound& out) {
  std::uint8_t mode = 0;
  double value = 0.0;
  if (!r.try_get(mode) || !r.try_get(value))
    return Status::error(ErrCode::kTruncated, "truncated error bound");
  if (mode > static_cast<std::uint8_t>(EbMode::kPSNR))
    return Status::error(ErrCode::kBadHeader, "bad error-bound mode");
  if (!std::isfinite(value))
    return Status::error(ErrCode::kBadHeader, "bad error-bound value");
  out = ErrorBound(static_cast<EbMode>(mode), value);
  return {};
}

void write_dims(ByteWriter& w, const Dims& d) {
  w.put(static_cast<std::uint8_t>(d.rank));
  for (int i = 0; i < d.rank; ++i) w.put_varint(d[i]);
}

}  // namespace

// -------------------------------------------------------------- encoding --

std::vector<std::uint8_t> encode_compress_request(const CompressRequest& r) {
  ByteWriter w;
  write_header(w, Op::kCompressRequest);
  w.put_blob({reinterpret_cast<const std::uint8_t*>(r.codec.data()),
              r.codec.size()});
  w.put(static_cast<std::uint8_t>(r.eb.mode()));
  w.put(r.eb.value());
  write_dims(w, r.dims);
  w.put_blob(r.field);
  return w.take();
}

std::vector<std::uint8_t> encode_decompress_request(
    const DecompressRequest& r) {
  ByteWriter w;
  write_header(w, Op::kDecompressRequest);
  w.put_blob({reinterpret_cast<const std::uint8_t*>(r.codec.data()),
              r.codec.size()});
  w.put_blob(r.stream);
  return w.take();
}

std::vector<std::uint8_t> encode_list_codecs_request() {
  ByteWriter w;
  write_header(w, Op::kListCodecsRequest);
  return w.take();
}

std::vector<std::uint8_t> encode_stats_request() {
  ByteWriter w;
  write_header(w, Op::kStatsRequest);
  return w.take();
}

std::vector<std::uint8_t> encode_compress_response(
    const CompressResponse& r) {
  ByteWriter w;
  write_header(w, Op::kCompressResponse);
  w.put(r.abs_eb);
  w.put_blob(r.stream);
  return w.take();
}

std::vector<std::uint8_t> encode_decompress_response(
    const DecompressResponse& r) {
  ByteWriter w;
  write_header(w, Op::kDecompressResponse);
  write_dims(w, r.dims);
  w.put_blob(r.field);
  return w.take();
}

std::vector<std::uint8_t> encode_list_codecs_response(
    const std::vector<CodecSummary>& codecs) {
  ByteWriter w;
  write_header(w, Op::kListCodecsResponse);
  w.put_varint(codecs.size());
  for (const auto& c : codecs) {
    w.put_blob({reinterpret_cast<const std::uint8_t*>(c.name.data()),
                c.name.size()});
    w.put(static_cast<std::uint8_t>(c.error_bounded ? 1 : 0));
    w.put(c.magic);
    w.put_blob({reinterpret_cast<const std::uint8_t*>(c.description.data()),
                c.description.size()});
  }
  return w.take();
}

std::vector<std::uint8_t> encode_stats_response(const StatsResponse& r) {
  ByteWriter w;
  write_header(w, Op::kStatsResponse);
  w.put_varint(r.counters.size());
  for (const auto& [name, value] : r.counters) {
    w.put_blob({reinterpret_cast<const std::uint8_t*>(name.data()),
                name.size()});
    w.put_varint(value);
  }
  return w.take();
}

std::vector<std::uint8_t> encode_error_response(const ErrorResponse& r) {
  ByteWriter w;
  write_header(w, Op::kErrorResponse);
  w.put(static_cast<std::uint8_t>(r.code));
  w.put_blob({reinterpret_cast<const std::uint8_t*>(r.message.data()),
              r.message.size()});
  return w.take();
}

// --------------------------------------------------------------- parsing --

Expected<Op> peek_op(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  std::uint32_t magic = 0;
  if (!r.try_get(magic))
    return Status::error(ErrCode::kTruncated, "frame too short for magic");
  if (magic != kFrameMagic)
    return Status::error(ErrCode::kBadMagic, "frame magic mismatch");
  std::uint8_t version = 0, raw_op = 0;
  if (!r.try_get(version) || !r.try_get(raw_op))
    return Status::error(ErrCode::kTruncated, "truncated frame header");
  if (version != kProtocolVersion)
    return Status::error(ErrCode::kBadHeader,
                         "unsupported protocol version " +
                             std::to_string(version));
  if (!known_op(raw_op))
    return Status::error(ErrCode::kBadHeader,
                         "unknown opcode " + std::to_string(raw_op));
  return static_cast<Op>(raw_op);
}

Expected<CompressRequest> parse_compress_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kCompressRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  CompressRequest out;
  if (Status s = read_string(r, kMaxCodecName, "codec name", out.codec);
      !s.ok())
    return s;
  if (Status s = read_error_bound(r, out.eb); !s.ok()) return s;
  if (Status s = sz::read_dims_checked(r, out.dims); !s.ok()) return s;
  if (!r.try_get_blob(out.field))
    return Status::error(ErrCode::kTruncated, "truncated field payload");
  // The payload length is part of the request's self-consistency: it must
  // be exactly the raw f32 bytes of the declared dims.
  if (out.field.size() != out.dims.total() * sizeof(float))
    return Status::error(ErrCode::kCorruptStream,
                         "field payload does not match dims");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<DecompressRequest> parse_decompress_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kDecompressRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  DecompressRequest out;
  if (Status s = read_string(r, kMaxCodecName, "codec name", out.codec);
      !s.ok())
    return s;
  if (!r.try_get_blob(out.stream))
    return Status::error(ErrCode::kTruncated, "truncated stream payload");
  if (out.stream.empty())
    return Status::error(ErrCode::kCorruptStream, "empty stream payload");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<CompressResponse> parse_compress_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kCompressResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  CompressResponse out;
  if (!r.try_get(out.abs_eb) || !std::isfinite(out.abs_eb) || out.abs_eb < 0)
    return Status::error(ErrCode::kBadHeader, "bad resolved bound");
  if (!r.try_get_blob(out.stream))
    return Status::error(ErrCode::kTruncated, "truncated stream payload");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<DecompressResponse> parse_decompress_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kDecompressResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  DecompressResponse out;
  if (Status s = sz::read_dims_checked(r, out.dims); !s.ok()) return s;
  if (!r.try_get_blob(out.field))
    return Status::error(ErrCode::kTruncated, "truncated field payload");
  if (out.field.size() != out.dims.total() * sizeof(float))
    return Status::error(ErrCode::kCorruptStream,
                         "field payload does not match dims");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<std::vector<CodecSummary>> parse_list_codecs_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kListCodecsResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  std::uint64_t count = 0;
  if (!r.try_get_varint(count))
    return Status::error(ErrCode::kTruncated, "truncated codec count");
  // Each entry takes at least 1 (name blob) + 1 (flag) + 4 (magic) +
  // 1 (description blob) = 7 bytes — capacity is validated before reserve.
  if (count > r.remaining() / 7)
    return Status::error(ErrCode::kBadHeader, "bad codec count");
  std::vector<CodecSummary> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CodecSummary c;
    if (Status s = read_string(r, kMaxCodecName, "codec name", c.name);
        !s.ok())
      return s;
    std::uint8_t bounded = 0;
    if (!r.try_get(bounded) || !r.try_get(c.magic))
      return Status::error(ErrCode::kTruncated, "truncated codec entry");
    c.error_bounded = bounded != 0;
    if (Status s = read_string(r, 4096, "codec description", c.description);
        !s.ok())
      return s;
    out.push_back(std::move(c));
  }
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<StatsResponse> parse_stats_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kStatsResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  std::uint64_t count = 0;
  if (!r.try_get_varint(count))
    return Status::error(ErrCode::kTruncated, "truncated counter count");
  // Minimum counter entry: 1-byte name blob + 1-byte varint value.
  if (count > r.remaining() / 2)
    return Status::error(ErrCode::kBadHeader, "bad counter count");
  StatsResponse out;
  out.counters.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string name;
    if (Status s = read_string(r, kMaxCodecName, "counter name", name);
        !s.ok())
      return s;
    std::uint64_t value = 0;
    if (!r.try_get_varint(value))
      return Status::error(ErrCode::kTruncated, "truncated counter value");
    out.counters.emplace_back(std::move(name), value);
  }
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<ErrorResponse> parse_error_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kErrorResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  std::uint8_t raw_code = 0;
  if (!r.try_get(raw_code))
    return Status::error(ErrCode::kTruncated, "truncated error code");
  if (raw_code > static_cast<std::uint8_t>(ErrCode::kTimeout) ||
      raw_code == static_cast<std::uint8_t>(ErrCode::kOk))
    return Status::error(ErrCode::kBadHeader, "bad error code");
  ErrorResponse out;
  out.code = static_cast<ErrCode>(raw_code);
  if (Status s = read_string(r, 4096, "error message", out.message); !s.ok())
    return s;
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

// ------------------------------------------------------ stream sessions --

std::vector<std::uint8_t> encode_open_stream_request(
    const OpenStreamRequest& r) {
  ByteWriter w;
  write_header(w, Op::kOpenStreamRequest);
  w.put_blob({reinterpret_cast<const std::uint8_t*>(r.codec.data()),
              r.codec.size()});
  w.put(static_cast<std::uint8_t>(r.eb.mode()));
  w.put(r.eb.value());
  write_dims(w, r.dims);
  w.put_varint(r.gop);
  return w.take();
}

std::vector<std::uint8_t> encode_open_stream_response(
    const OpenStreamResponse& r) {
  ByteWriter w;
  write_header(w, Op::kOpenStreamResponse);
  w.put(r.session_id);
  return w.take();
}

std::vector<std::uint8_t> encode_append_timestep_request(
    const AppendTimestepRequest& r) {
  ByteWriter w;
  write_header(w, Op::kAppendTimestepRequest);
  w.put(r.session_id);
  w.put_blob(r.field);
  return w.take();
}

std::vector<std::uint8_t> encode_append_timestep_response(
    const AppendTimestepResponse& r) {
  ByteWriter w;
  write_header(w, Op::kAppendTimestepResponse);
  w.put_varint(r.timestep);
  w.put(static_cast<std::uint8_t>(r.residual ? 1 : 0));
  w.put(r.abs_eb);
  w.put_varint(r.stored_bytes);
  return w.take();
}

std::vector<std::uint8_t> encode_read_timestep_request(
    const ReadTimestepRequest& r) {
  ByteWriter w;
  write_header(w, Op::kReadTimestepRequest);
  w.put(r.session_id);
  w.put_varint(r.timestep);
  return w.take();
}

std::vector<std::uint8_t> encode_read_timestep_response(
    const ReadTimestepResponse& r) {
  ByteWriter w;
  write_header(w, Op::kReadTimestepResponse);
  write_dims(w, r.dims);
  w.put_blob(r.field);
  return w.take();
}

std::vector<std::uint8_t> encode_close_stream_request(
    const CloseStreamRequest& r) {
  ByteWriter w;
  write_header(w, Op::kCloseStreamRequest);
  w.put(r.session_id);
  return w.take();
}

std::vector<std::uint8_t> encode_close_stream_response(
    const CloseStreamResponse& r) {
  ByteWriter w;
  write_header(w, Op::kCloseStreamResponse);
  w.put_varint(r.timesteps);
  w.put_blob(r.artifact);
  return w.take();
}

Expected<OpenStreamRequest> parse_open_stream_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kOpenStreamRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  OpenStreamRequest out;
  if (Status s = read_string(r, kMaxCodecName, "codec name", out.codec);
      !s.ok())
    return s;
  if (out.codec.empty())
    return Status::error(ErrCode::kBadHeader, "empty codec name");
  if (Status s = read_error_bound(r, out.eb); !s.ok()) return s;
  if (Status s = sz::read_dims_checked(r, out.dims); !s.ok()) return s;
  if (!r.try_get_varint(out.gop))
    return Status::error(ErrCode::kTruncated, "truncated gop");
  if (out.gop > temporal::kMaxGop)
    return Status::error(ErrCode::kBadHeader, "gop exceeds cap");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<OpenStreamResponse> parse_open_stream_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kOpenStreamResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  OpenStreamResponse out;
  if (!r.try_get(out.session_id))
    return Status::error(ErrCode::kTruncated, "truncated session id");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<AppendTimestepRequest> parse_append_timestep_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kAppendTimestepRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  AppendTimestepRequest out;
  if (!r.try_get(out.session_id))
    return Status::error(ErrCode::kTruncated, "truncated session id");
  if (!r.try_get_blob(out.field))
    return Status::error(ErrCode::kTruncated, "truncated field payload");
  // Whether the size matches the session's dims only the server knows;
  // a payload that isn't whole floats is malformed on its face.
  if (out.field.empty() || out.field.size() % sizeof(float) != 0)
    return Status::error(ErrCode::kCorruptStream,
                         "field payload not a whole number of floats");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<AppendTimestepResponse> parse_append_timestep_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kAppendTimestepResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  AppendTimestepResponse out;
  std::uint8_t residual = 0;
  if (!r.try_get_varint(out.timestep) || !r.try_get(residual))
    return Status::error(ErrCode::kTruncated, "truncated append response");
  if (residual > 1)
    return Status::error(ErrCode::kBadHeader, "bad residual flag");
  out.residual = residual != 0;
  if (!r.try_get(out.abs_eb) || !std::isfinite(out.abs_eb) || out.abs_eb <= 0)
    return Status::error(ErrCode::kBadHeader, "bad resolved bound");
  if (!r.try_get_varint(out.stored_bytes))
    return Status::error(ErrCode::kTruncated, "truncated stored-bytes");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<ReadTimestepRequest> parse_read_timestep_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kReadTimestepRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  ReadTimestepRequest out;
  if (!r.try_get(out.session_id))
    return Status::error(ErrCode::kTruncated, "truncated session id");
  if (!r.try_get_varint(out.timestep))
    return Status::error(ErrCode::kTruncated, "truncated timestep");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<ReadTimestepResponse> parse_read_timestep_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kReadTimestepResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  ReadTimestepResponse out;
  if (Status s = sz::read_dims_checked(r, out.dims); !s.ok()) return s;
  if (!r.try_get_blob(out.field))
    return Status::error(ErrCode::kTruncated, "truncated field payload");
  if (out.field.size() != out.dims.total() * sizeof(float))
    return Status::error(ErrCode::kCorruptStream,
                         "field payload does not match dims");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<CloseStreamRequest> parse_close_stream_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kCloseStreamRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  CloseStreamRequest out;
  if (!r.try_get(out.session_id))
    return Status::error(ErrCode::kTruncated, "truncated session id");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<CloseStreamResponse> parse_close_stream_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kCloseStreamResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  CloseStreamResponse out;
  if (!r.try_get_varint(out.timesteps))
    return Status::error(ErrCode::kTruncated, "truncated timestep count");
  if (!r.try_get_blob(out.artifact))
    return Status::error(ErrCode::kTruncated, "truncated artifact");
  if (out.artifact.empty())
    return Status::error(ErrCode::kCorruptStream, "empty artifact");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

// ------------------------------------------------------------ progressive --

std::vector<std::uint8_t> encode_read_partial_request(
    const ReadPartialRequest& r) {
  ByteWriter w;
  write_header(w, Op::kReadPartialRequest);
  w.put_blob(r.stream);
  w.put(static_cast<std::uint8_t>(r.mode));
  if (r.mode == PartialMode::kByteBudget) {
    w.put_varint(r.budget);
  } else {
    w.put(static_cast<std::uint8_t>(r.bound.mode()));
    w.put(r.bound.value());
  }
  return w.take();
}

std::vector<std::uint8_t> encode_read_partial_response(
    const ReadPartialResponse& r) {
  ByteWriter w;
  write_header(w, Op::kReadPartialResponse);
  w.put(r.abs_eb);
  w.put_varint(r.layers);
  w.put_varint(r.total_layers);
  w.put_blob(r.stream);
  return w.take();
}

Expected<ReadPartialRequest> parse_read_partial_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kReadPartialRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  ReadPartialRequest out;
  if (!r.try_get_blob(out.stream))
    return Status::error(ErrCode::kTruncated, "truncated stream payload");
  if (out.stream.empty())
    return Status::error(ErrCode::kCorruptStream, "empty stream payload");
  std::uint8_t mode = 0;
  if (!r.try_get(mode))
    return Status::error(ErrCode::kTruncated, "truncated partial mode");
  if (mode > static_cast<std::uint8_t>(PartialMode::kTargetBound))
    return Status::error(ErrCode::kBadHeader, "bad partial mode");
  out.mode = static_cast<PartialMode>(mode);
  if (out.mode == PartialMode::kByteBudget) {
    if (!r.try_get_varint(out.budget))
      return Status::error(ErrCode::kTruncated, "truncated byte budget");
  } else {
    if (Status s = read_error_bound(r, out.bound); !s.ok()) return s;
    if (!out.bound.usable())
      return Status::error(ErrCode::kBadHeader, "unusable target bound");
  }
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<ReadPartialResponse> parse_read_partial_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kReadPartialResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  ReadPartialResponse out;
  if (!r.try_get(out.abs_eb) || !std::isfinite(out.abs_eb) || out.abs_eb <= 0)
    return Status::error(ErrCode::kBadHeader, "bad achieved bound");
  if (!r.try_get_varint(out.layers) || !r.try_get_varint(out.total_layers))
    return Status::error(ErrCode::kTruncated, "truncated layer counts");
  if (out.layers == 0 || out.layers > out.total_layers)
    return Status::error(ErrCode::kBadHeader, "bad layer counts");
  if (!r.try_get_blob(out.stream))
    return Status::error(ErrCode::kTruncated, "truncated stream payload");
  if (out.stream.empty())
    return Status::error(ErrCode::kCorruptStream, "empty stream payload");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

// -------------------------------------------------------------- deadline --

std::vector<std::uint8_t> encode_deadline_request(const DeadlineRequest& r) {
  ByteWriter w;
  write_header(w, Op::kDeadlineRequest);
  w.put_varint(r.deadline_ms);
  w.put_blob(r.inner);
  return w.take();
}

Expected<DeadlineRequest> parse_deadline_request(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kDeadlineRequest);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  DeadlineRequest out;
  if (!r.try_get_varint(out.deadline_ms))
    return Status::error(ErrCode::kTruncated, "truncated deadline");
  if (!r.try_get_blob(out.inner))
    return Status::error(ErrCode::kTruncated, "truncated inner frame");
  const auto inner_op = peek_op(out.inner);
  if (!inner_op.ok()) return inner_op.status();
  if (*inner_op == Op::kDeadlineRequest)
    return Status::error(ErrCode::kBadHeader, "nested deadline envelope");
  if (static_cast<std::uint8_t>(*inner_op) >=
      static_cast<std::uint8_t>(Op::kCompressResponse))
    return Status::error(ErrCode::kBadHeader,
                         "deadline envelope must wrap a request");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

// --------------------------------------------------------------- metrics --

std::vector<std::uint8_t> encode_metrics_request() {
  ByteWriter w;
  write_header(w, Op::kMetricsRequest);
  return w.take();
}

std::vector<std::uint8_t> encode_metrics_response(const MetricsResponse& r) {
  ByteWriter w;
  write_header(w, Op::kMetricsResponse);
  w.put_blob(r.text);
  return w.take();
}

Expected<MetricsResponse> parse_metrics_response(
    std::span<const std::uint8_t> frame) {
  auto opened = open_frame(frame, Op::kMetricsResponse);
  if (!opened.ok()) return opened.status();
  ByteReader r = *opened;
  MetricsResponse out;
  if (!r.try_get_blob(out.text))
    return Status::error(ErrCode::kTruncated, "truncated exposition text");
  if (Status s = close_frame(r); !s.ok()) return s;
  return out;
}

Expected<std::uint64_t> peek_session_id(std::span<const std::uint8_t> frame) {
  const auto op = peek_op(frame);
  if (!op.ok()) return op.status();
  if (*op != Op::kAppendTimestepRequest && *op != Op::kReadTimestepRequest &&
      *op != Op::kCloseStreamRequest)
    return Status::error(ErrCode::kBadHeader,
                         std::string(op_name(*op)) +
                             " does not carry a session id");
  ByteReader r(frame.subspan(kFrameHeaderBytes));
  std::uint64_t id = 0;
  if (!r.try_get(id))
    return Status::error(ErrCode::kTruncated, "truncated session id");
  return id;
}

std::span<const std::uint8_t> field_blob(const Field& f) {
  const auto floats = f.values();
  return {reinterpret_cast<const std::uint8_t*>(floats.data()),
          floats.size() * sizeof(float)};
}

Field field_from_blob(const Dims& dims, std::span<const std::uint8_t> blob) {
  std::vector<float> values(dims.total());
  std::memcpy(values.data(), blob.data(), blob.size());
  return Field(dims, std::move(values));
}

}  // namespace aesz::service
