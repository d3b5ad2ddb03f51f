#include "temporal/temporal.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "predictors/registry.hpp"
#include "predictors/residual.hpp"
#include "util/bytestream.hpp"
#include "util/error.hpp"

namespace aesz::temporal {

namespace {

/// Index of the nearest keyframe at or before t, or an error when the
/// record sequence has none (corrupt: a stream must open with intra).
Expected<std::size_t> keyframe_before(const std::vector<RecordInfo>& recs,
                                      std::size_t t) {
  std::size_t k = t;
  while (recs[k].mode != kModeIntra) {
    if (k == 0)
      return Status::error(ErrCode::kCorruptStream,
                           "no keyframe before timestep");
    --k;
  }
  return k;
}

/// kInvalidArgument unless timestep t is one of the n stored.
Status in_range(std::size_t t, std::size_t n) {
  if (t < n) return {};
  return Status::error(ErrCode::kInvalidArgument,
                       "timestep " + std::to_string(t) + " out of range (" +
                           std::to_string(n) + " stored)");
}

}  // namespace

Expected<Mode> parse_mode(const std::string& spec) {
  std::string s = spec;
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "auto") return Mode::kAuto;
  if (s == "intra") return Mode::kIntra;
  if (s == "residual") return Mode::kResidual;
  return Status::error(ErrCode::kInvalidArgument,
                       "unknown temporal mode '" + spec +
                           "' (use auto|intra|residual)");
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kAuto: return "auto";
    case Mode::kIntra: return "intra";
    case Mode::kResidual: return "residual";
  }
  return "?";
}

TemporalCompressor::TemporalCompressor(std::unique_ptr<Compressor> codec,
                                       Dims dims, ErrorBound eb,
                                       std::size_t gop, Mode mode)
    : codec_(std::move(codec)), dims_(dims), eb_(eb), gop_(gop), mode_(mode) {
  AESZ_CHECK_ARG(codec_ != nullptr, "temporal codec requires an inner codec");
  AESZ_CHECK_ARG(dims_.rank >= 1 && dims_.rank <= 3, "bad rank");
  AESZ_CHECK_ARG(eb_.usable(), "unusable error bound");
  AESZ_CHECK_ARG(gop_ <= kMaxGop, "gop exceeds cap");
  if (!codec_->supports_rank(dims_.rank))
    throw Error(ErrCode::kUnsupported,
                "codec '" + codec_->name() + "' does not support rank " +
                    std::to_string(dims_.rank));
  // An unbounded residual chain compounds error without limit — force
  // snapshot coding for codecs that cannot bound the residual.
  if (!codec_->error_bounded()) mode_ = Mode::kIntra;
}

TemporalCompressor::StepResult TemporalCompressor::compress_step(
    const Field& f) {
  AESZ_CHECK_ARG(f.dims() == dims_,
                 "timestep dims " + f.dims().str() + " != stream dims " +
                     dims_.str());
  StepResult out;
  out.abs_eb = eb_.absolute(f.value_range());
  const bool keyframe = step_ == 0 || (gop_ > 0 && step_ % gop_ == 0);
  const bool try_residual = !keyframe && mode_ != Mode::kIntra;

  if (try_residual) {
    // Abs, not the stream bound: rel/psnr must stay relative to the
    // ORIGINAL frame's range, which out.abs_eb already resolved.
    out.mode = kModeResidual;
    out.payload =
        codec_->compress(residual(f, ref_), ErrorBound::Abs(out.abs_eb));
  }
  if (keyframe || mode_ != Mode::kResidual) {
    std::vector<std::uint8_t> intra = codec_->compress(f, eb_);
    // Auto mode keeps the smaller trial; ties go intra (better error
    // containment at equal cost).
    if (!try_residual || intra.size() <= out.payload.size()) {
      out.mode = kModeIntra;
      out.payload = std::move(intra);
    }
  }

  // Advance the reference chain with the DECODED frame, so the encoder
  // state is bit-identical to what any decoder reconstructs.
  if (Status s = fold_decoded(*codec_, out.payload,
                              out.mode == kModeResidual, dims_, ref_);
      !s.ok())
    throw Error(ErrCode::kInternal,
                "self-decode of freshly encoded timestep failed: " + s.str());
  ++step_;
  return out;
}

void TemporalCompressor::restore(Field ref, std::size_t step) {
  AESZ_CHECK_ARG(ref.dims() == dims_, "restore dims mismatch");
  AESZ_CHECK_ARG(step > 0, "restore needs a decoded timestep");
  ref_ = std::move(ref);
  step_ = step;
}

TemporalWriter::TemporalWriter(Dims dims, ErrorBound eb, Options opt) {
  info_.version = kFormatVersion;
  info_.inner = opt.inner;
  info_.dims = dims;
  info_.eb = eb;
  info_.gop = opt.gop;
  auto codec = make_inner(opt.factory, opt.inner, dims.rank);
  if (!codec.ok()) throw Error(codec.status().code, codec.status().str());
  enc_ = std::make_unique<TemporalCompressor>(std::move(*codec), dims, eb,
                                              opt.gop, opt.mode);
  body_ = write_stream_header(opt.inner, dims, eb, opt.gop);
}

Expected<std::unique_ptr<TemporalWriter>> TemporalWriter::open(
    std::span<const std::uint8_t> stream, Options opt, bool recover) {
  auto parsed = recover ? recover_stream(stream) : read_stream(stream);
  if (!parsed.ok()) return parsed.status();
  auto codec = make_inner(opt.factory, parsed->inner, parsed->dims.rank);
  if (!codec.ok()) return codec.status();

  std::unique_ptr<TemporalWriter> w(new TemporalWriter());
  StreamInfo& info = w->info_ = std::move(*parsed);
  w->enc_ = std::make_unique<TemporalCompressor>(
      std::move(*codec), info.dims, info.eb, info.gop, opt.mode);
  w->body_.assign(stream.begin(),
                  stream.begin() + static_cast<std::ptrdiff_t>(info.body_bytes));
  // The parsed payload spans alias the caller's buffer, which this writer
  // outlives — drop them; the offsets into body_ are the durable truth.
  for (RecordInfo& rec : info.records) rec.payload = {};

  if (const std::size_t n = info.records.size(); n > 0) {
    auto ref = w->decode_at(n - 1);
    if (!ref.ok()) return ref.status();
    w->enc_->restore(std::move(*ref), n);
  }
  return w;
}

TemporalWriter::AppendResult TemporalWriter::append(const Field& f) {
  auto step = enc_->compress_step(f);
  RecordInfo rec;
  rec.mode = step.mode;
  rec.abs_eb = step.abs_eb;
  rec.offset = body_.size();
  append_record(body_, step.mode, step.abs_eb, step.payload, info_.version);
  rec.length = body_.size() - rec.offset;
  info_.records.push_back(rec);
  return {info_.records.size() - 1, step.mode, step.abs_eb, rec.length};
}

Expected<Field> TemporalWriter::read(std::size_t t) {
  if (Status s = in_range(t, info_.records.size()); !s.ok()) return s;
  return decode_at(t);
}

Expected<Field> TemporalWriter::decode_at(std::size_t t) {
  auto k = keyframe_before(info_.records, t);
  if (!k.ok()) return k.status();
  Field ref;
  for (std::size_t i = *k; i <= t; ++i) {
    const RecordInfo& at = info_.records[i];
    ByteReader r(std::span<const std::uint8_t>(body_).subspan(at.offset,
                                                               at.length));
    RecordInfo rec;
    Status s = parse_record(r, rec, info_.version);
    if (s.ok())
      s = fold_decoded(enc_->codec(), rec.payload, rec.mode == kModeResidual,
                       info_.dims, ref);
    if (!s.ok()) return s;
  }
  return ref;
}

std::vector<std::uint8_t> TemporalWriter::bytes() const {
  std::vector<std::uint8_t> out = body_;
  const auto footer = write_footer(info_.records);
  out.insert(out.end(), footer.begin(), footer.end());
  return out;
}

Expected<std::unique_ptr<TemporalReader>> TemporalReader::open(
    std::span<const std::uint8_t> stream, CodecFactory factory) {
  auto parsed = read_stream(stream);
  if (!parsed.ok()) return parsed.status();
  auto codec = make_inner(factory, parsed->inner, parsed->dims.rank);
  if (!codec.ok()) return codec.status();
  std::unique_ptr<TemporalReader> r(new TemporalReader());
  r->info_ = std::move(*parsed);
  r->codec_ = std::move(*codec);
  return r;
}

Expected<Field> TemporalReader::read(std::size_t t) {
  const auto& recs = info_.records;
  if (Status s = in_range(t, recs.size()); !s.ok()) return s;
  auto k = keyframe_before(recs, t);
  if (!k.ok()) return k.status();
  // Continue the memoized chain when it sits inside [keyframe, t];
  // otherwise re-seek from the keyframe (an intra record: it replaces
  // whatever the chain held).
  std::size_t i = next_;
  if (next_ == 0 || next_ < *k || next_ > t) i = *k;
  next_ = 0;  // invalid until the loop below completes
  for (; i <= t; ++i)
    if (Status s = fold_decoded(*codec_, recs[i].payload,
                                recs[i].mode == kModeResidual, info_.dims,
                                ref_);
        !s.ok())
      return s;
  next_ = t + 1;
  return ref_;
}

}  // namespace aesz::temporal
