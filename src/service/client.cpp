#include "service/client.hpp"

#include <utility>

namespace aesz::service {

namespace {

/// The one classification of a received frame: a server error frame
/// becomes its typed status, a frame of any op but `expected` is
/// kCorruptStream, anything else passes through.
Expected<std::vector<std::uint8_t>> check_response(
    std::vector<std::uint8_t> response, Op expected) {
  const auto op = peek_op(response);
  if (!op.ok()) return op.status();
  if (*op == Op::kErrorResponse) {
    auto err = parse_error_response(response);
    if (!err.ok()) return err.status();
    return Status::error(err->code, "server: " + err->message);
  }
  if (*op != expected)
    return Status::error(ErrCode::kCorruptStream,
                         std::string("expected ") + op_name(expected) +
                             ", server sent " + op_name(*op));
  return response;
}

std::vector<std::uint8_t> compress_frame(const std::string& codec,
                                         const Field& f,
                                         const ErrorBound& eb) {
  CompressRequest req;
  req.codec = codec;
  req.eb = eb;
  req.dims = f.dims();
  req.field = field_blob(f);
  return encode_compress_request(req);
}

Expected<Client::CompressResult> finish_compress(
    Expected<std::vector<std::uint8_t>> response) {
  if (!response.ok()) return response.status();
  auto parsed = parse_compress_response(*response);
  if (!parsed.ok()) return parsed.status();
  Client::CompressResult out;
  out.abs_eb = parsed->abs_eb;
  out.stream.assign(parsed->stream.begin(), parsed->stream.end());
  return out;
}

}  // namespace

Expected<std::vector<std::uint8_t>> Client::round_trip_once(
    std::span<const std::uint8_t> request, Op expected) {
  if (Status s = transport_->send_frame(request); !s.ok()) return s;
  auto response = transport_->recv_frame();
  if (!response.ok()) return response.status();
  return check_response(std::move(*response), expected);
}

void Client::maybe_reconnect(const Status& failure) {
  // kOverloaded means the connection delivered a well-formed answer —
  // keep it. kIoError/kTimeout mean the connection is gone or can no
  // longer pair responses with requests (a timed-out response may still
  // arrive later and would be credited to the NEXT request).
  if (failure.code != ErrCode::kIoError && failure.code != ErrCode::kTimeout)
    return;
  if (!reconnect_) return;
  auto fresh = reconnect_();
  if (!fresh.ok() || *fresh == nullptr)
    return;  // next attempt fails kIoError and the policy decides again
  owned_ = std::move(*fresh);
  transport_ = owned_.get();
  transport_->set_frame_crc(want_crc_);
}

Expected<std::vector<std::uint8_t>> Client::round_trip(
    std::span<const std::uint8_t> request, Op expected, bool idempotent) {
  std::vector<std::uint8_t> enveloped;
  if (deadline_ms_ > 0) {
    enveloped = encode_deadline_request({deadline_ms_, request});
    request = enveloped;
  }
  if (!retry_enabled_ || !idempotent) return round_trip_once(request, expected);
  return with_retry(
      retry_, [&] { return round_trip_once(request, expected); },
      [&](const Status& failure) { maybe_reconnect(failure); }, sleep_);
}

Expected<Client::CompressResult> Client::compress(const std::string& codec,
                                                  const Field& f,
                                                  const ErrorBound& eb) {
  return finish_compress(
      round_trip(compress_frame(codec, f, eb), Op::kCompressResponse));
}

std::vector<Expected<Client::CompressResult>> Client::compress_many(
    const std::string& codec, const std::vector<const Field*>& fields,
    const ErrorBound& eb) {
  std::vector<Expected<CompressResult>> out;
  out.reserve(fields.size());
  std::size_t sent = 0;
  Status send_failure;
  for (const Field* f : fields) {
    if (Status s = transport_->send_frame(compress_frame(codec, *f, eb));
        !s.ok()) {
      send_failure = s;
      break;
    }
    ++sent;
  }
  for (std::size_t i = 0; i < sent; ++i) {
    auto response = transport_->recv_frame();
    if (!response.ok()) {
      // The connection is gone; everything still owed fails the same way.
      for (std::size_t j = i; j < fields.size(); ++j)
        out.push_back(response.status());
      return out;
    }
    out.push_back(finish_compress(
        check_response(std::move(*response), Op::kCompressResponse)));
  }
  for (std::size_t i = sent; i < fields.size(); ++i)
    out.push_back(send_failure.ok()
                      ? Status::error(ErrCode::kIoError, "send failed")
                      : send_failure);
  return out;
}

Expected<Field> Client::decompress(std::span<const std::uint8_t> stream,
                                   const std::string& codec) {
  DecompressRequest req;
  req.codec = codec;
  req.stream = stream;
  const auto frame = encode_decompress_request(req);
  auto response = round_trip(frame, Op::kDecompressResponse);
  if (!response.ok()) return response.status();
  auto parsed = parse_decompress_response(*response);
  if (!parsed.ok()) return parsed.status();
  return field_from_blob(parsed->dims, parsed->field);
}

namespace {

Expected<Client::PartialResult> finish_read_partial(
    Expected<std::vector<std::uint8_t>> response) {
  if (!response.ok()) return response.status();
  auto parsed = parse_read_partial_response(*response);
  if (!parsed.ok()) return parsed.status();
  Client::PartialResult out;
  out.abs_eb = parsed->abs_eb;
  out.layers = parsed->layers;
  out.total_layers = parsed->total_layers;
  out.stream.assign(parsed->stream.begin(), parsed->stream.end());
  return out;
}

}  // namespace

Expected<Client::PartialResult> Client::read_partial(
    std::span<const std::uint8_t> stream, std::uint64_t budget) {
  ReadPartialRequest req;
  req.stream = stream;
  req.mode = PartialMode::kByteBudget;
  req.budget = budget;
  const auto frame = encode_read_partial_request(req);
  return finish_read_partial(round_trip(frame, Op::kReadPartialResponse));
}

Expected<Client::PartialResult> Client::read_partial(
    std::span<const std::uint8_t> stream, const ErrorBound& target) {
  ReadPartialRequest req;
  req.stream = stream;
  req.mode = PartialMode::kTargetBound;
  req.bound = target;
  const auto frame = encode_read_partial_request(req);
  return finish_read_partial(round_trip(frame, Op::kReadPartialResponse));
}

Expected<Client::Stream> Client::open_stream(const std::string& codec,
                                             const Dims& dims,
                                             const ErrorBound& eb,
                                             std::uint64_t gop) {
  OpenStreamRequest req;
  req.codec = codec;
  req.eb = eb;
  req.dims = dims;
  req.gop = gop;
  const auto frame = encode_open_stream_request(req);
  auto response = round_trip(frame, Op::kOpenStreamResponse);
  if (!response.ok()) return response.status();
  auto parsed = parse_open_stream_response(*response);
  if (!parsed.ok()) return parsed.status();
  return Stream(this, parsed->session_id);
}

Client::Stream::Stream(Stream&& other) noexcept
    : client_(other.client_), id_(other.id_) {
  other.client_ = nullptr;
}

Client::Stream& Client::Stream::operator=(Stream&& other) noexcept {
  if (this != &other) {
    if (client_) (void)close();  // best-effort, artifact discarded
    client_ = other.client_;
    id_ = other.id_;
    other.client_ = nullptr;
  }
  return *this;
}

Client::Stream::~Stream() {
  if (!client_) return;
  // Best-effort: free the server-side session now instead of waiting for
  // the idle reaper. Any failure (connection gone, session already
  // reaped) is fine — the destructor must not throw.
  (void)close();
}

Expected<Client::Stream::AppendInfo> Client::Stream::append(const Field& f) {
  if (!client_)
    return Status::error(ErrCode::kNoSession, "stream handle is closed");
  AppendTimestepRequest req;
  req.session_id = id_;
  req.field = field_blob(f);
  const auto frame = encode_append_timestep_request(req);
  // NOT idempotent: replaying an append whose response was lost would
  // store the timestep twice.
  auto response = client_->round_trip(frame, Op::kAppendTimestepResponse,
                                      /*idempotent=*/false);
  if (!response.ok()) return response.status();
  auto parsed = parse_append_timestep_response(*response);
  if (!parsed.ok()) return parsed.status();
  return AppendInfo{parsed->timestep, parsed->residual, parsed->abs_eb,
                    parsed->stored_bytes};
}

Expected<Field> Client::Stream::read_timestep(std::uint64_t t) {
  if (!client_)
    return Status::error(ErrCode::kNoSession, "stream handle is closed");
  ReadTimestepRequest req;
  req.session_id = id_;
  req.timestep = t;
  const auto frame = encode_read_timestep_request(req);
  auto response = client_->round_trip(frame, Op::kReadTimestepResponse);
  if (!response.ok()) return response.status();
  auto parsed = parse_read_timestep_response(*response);
  if (!parsed.ok()) return parsed.status();
  return field_from_blob(parsed->dims, parsed->field);
}

Expected<std::vector<std::uint8_t>> Client::Stream::close() {
  if (!client_)
    return Status::error(ErrCode::kNoSession, "stream handle is closed");
  CloseStreamRequest req;
  req.session_id = id_;
  const auto frame = encode_close_stream_request(req);
  // NOT idempotent: a successful close frees the session, so a replay
  // would answer kNoSession and mask the artifact already delivered.
  auto response = client_->round_trip(frame, Op::kCloseStreamResponse,
                                      /*idempotent=*/false);
  if (!response.ok()) {
    // kUnsupported = artifact over the frame cap: the server kept the
    // session alive, so keep the handle usable too. Anything else (the
    // session is gone, the connection died) makes the handle inert.
    if (response.status().code != ErrCode::kUnsupported) client_ = nullptr;
    return response.status();
  }
  client_ = nullptr;
  auto parsed = parse_close_stream_response(*response);
  if (!parsed.ok()) return parsed.status();
  return std::vector<std::uint8_t>(parsed->artifact.begin(),
                                   parsed->artifact.end());
}

Expected<std::vector<CodecSummary>> Client::list_codecs() {
  const auto frame = encode_list_codecs_request();
  auto response = round_trip(frame, Op::kListCodecsResponse);
  if (!response.ok()) return response.status();
  return parse_list_codecs_response(*response);
}

Expected<StatsResponse> Client::stats() {
  const auto frame = encode_stats_request();
  auto response = round_trip(frame, Op::kStatsResponse);
  if (!response.ok()) return response.status();
  return parse_stats_response(*response);
}

Expected<std::string> Client::metrics() {
  const auto frame = encode_metrics_request();
  auto response = round_trip(frame, Op::kMetricsResponse);
  if (!response.ok()) return response.status();
  auto parsed = parse_metrics_response(*response);
  if (!parsed.ok()) return parsed.status();
  return parsed->text_str();
}

}  // namespace aesz::service
