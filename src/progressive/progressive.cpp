#include "progressive/progressive.hpp"

#include <cmath>
#include <utility>

#include "predictors/registry.hpp"
#include "predictors/residual.hpp"
#include "util/error.hpp"

namespace aesz::progressive {

namespace {

/// The throwing make_inner (predictors/registry.hpp) for the writer and
/// the registry wrapper, where a bad inner codec is a caller error.
/// `require_rank` is false for the ProgressiveCompressor ctor: registry
/// create() must succeed for every (name, rank), with callers gating on
/// supports_rank() afterwards.
std::unique_ptr<Compressor> make_inner_or_throw(const CodecFactory& factory,
                                                const std::string& name,
                                                int rank,
                                                bool require_rank = true) {
  auto codec = make_inner(factory, name, rank, require_rank);
  if (!codec.ok()) throw Error(codec.status().code, codec.status().str());
  return std::move(*codec);
}

/// What truncate_to_* answer for the prefix carrying layers 0..k.
TruncateResult prefix_result(const StreamInfo& info, std::size_t k) {
  return {prefix_bytes(info, k), k + 1, info.layers.size(),
          info.layers[k].abs_eb};
}

}  // namespace

ProgressiveWriter::ProgressiveWriter(Options opt) : opt_(std::move(opt)) {
  AESZ_CHECK_ARG(!opt_.inner.empty() &&
                     opt_.inner.size() <= format::kMaxInnerName,
                 "bad inner codec name length");
  AESZ_CHECK_ARG(opt_.layers >= 1 && opt_.layers <= kMaxLayers,
                 "layer count out of range");
  AESZ_CHECK_ARG(std::isfinite(opt_.factor) && opt_.factor > 1.0,
                 "bound factor must be > 1");
}

std::vector<std::uint8_t> ProgressiveWriter::encode(const Field& f,
                                                    const ErrorBound& eb) {
  AESZ_CHECK_ARG(eb.usable(), "unusable error bound");
  auto codec = make_inner_or_throw(opt_.factory, opt_.inner, f.dims().rank);
  if (!codec->error_bounded())
    throw Error(ErrCode::kUnsupported,
                "progressive layering needs an error-bounded inner codec; '" +
                    opt_.inner + "' is not");
  const double value_range = f.value_range();
  const double abs_eb = eb.absolute(value_range);

  // The ladder: layer i guarantees abs_eb * factor^(L-1-i); the last rung
  // is the exact non-progressive tolerance. Layer 0 codes the field
  // itself at the loosest rung; each refinement codes the residual
  // against the DECODED reconstruction so far, so after layer i the
  // per-element error is |residual_i - recon_residual_i| <= rung i —
  // regardless of the error the previous layers left behind.
  std::vector<LayerInfo> table(opt_.layers);
  std::vector<std::vector<std::uint8_t>> payloads(opt_.layers);
  Field recon;
  for (std::size_t i = 0; i < opt_.layers; ++i) {
    const double rung =
        abs_eb * std::pow(opt_.factor,
                          static_cast<double>(opt_.layers - 1 - i));
    const ErrorBound rung_eb = ErrorBound::Abs(rung);
    payloads[i] = i == 0 ? codec->compress(f, rung_eb)
                         : codec->compress(residual(f, recon), rung_eb);
    // Advance the reference with the decoded layer, never the original —
    // the encoder's chain must be bit-identical to any reader's.
    if (Status s = fold_decoded(*codec, payloads[i], i > 0, f.dims(), recon);
        !s.ok())
      throw Error(ErrCode::kInternal,
                  "self-decode of freshly encoded layer failed: " + s.str());
    table[i].abs_eb = rung;
    table[i].payload = payloads[i];
  }
  return write_stream(opt_.inner, f.dims(), eb, value_range, table);
}

Expected<std::unique_ptr<ProgressiveReader>> ProgressiveReader::open(
    std::span<const std::uint8_t> stream, CodecFactory factory) {
  auto parsed = read_stream(stream);
  if (!parsed.ok()) return parsed.status();
  auto codec = make_inner(factory, parsed->inner, parsed->dims.rank);
  if (!codec.ok()) return codec.status();
  std::unique_ptr<ProgressiveReader> r(new ProgressiveReader());
  r->info_ = std::move(*parsed);
  r->codec_ = std::move(*codec);
  return r;
}

Expected<Field> ProgressiveReader::read(std::size_t k) {
  if (k >= info_.present)
    return Status::error(ErrCode::kInvalidArgument,
                         "layer " + std::to_string(k) + " out of range (" +
                             std::to_string(info_.present) + " present)");
  // Refining a previous read resumes the memoized chain; rewinding to a
  // coarser prefix restarts it (recon_ already folds later layers in).
  std::size_t start = next_;
  if (k + 1 < next_ || next_ == 0) {
    recon_ = Field();
    start = 0;
  }
  next_ = 0;  // invalid until the loop completes
  for (std::size_t i = start; i <= k; ++i)
    if (Status s = fold_decoded(*codec_, info_.layers[i].payload, i > 0,
                                info_.dims, recon_);
        !s.ok())
      return s;
  next_ = k + 1;
  return recon_;
}

Expected<TruncateResult> truncate_to_bytes(
    std::span<const std::uint8_t> stream, std::size_t budget) {
  auto parsed = read_stream(stream);
  if (!parsed.ok()) return parsed.status();
  return prefix_result(*parsed, layers_for_budget(*parsed, budget));
}

Expected<TruncateResult> truncate_to_bound(
    std::span<const std::uint8_t> stream, const ErrorBound& target) {
  auto parsed = read_stream(stream);
  if (!parsed.ok()) return parsed.status();
  auto k = layers_for_bound(*parsed, target);
  if (!k.ok()) return k.status();
  return prefix_result(*parsed, *k);
}

ProgressiveCompressor::ProgressiveCompressor(ProgressiveWriter::Options opt,
                                             int rank)
    : opt_(opt) {
  // Lenient on rank by design: the registry contract is that create()
  // succeeds for every registered name at every rank, with callers
  // gating on supports_rank() — which delegates to the inner instance.
  inner_ = make_inner_or_throw(opt_.factory, opt_.inner, rank,
                               /*require_rank=*/false);
  if (!inner_->error_bounded())
    throw Error(ErrCode::kUnsupported,
                "progressive layering needs an error-bounded inner codec; '" +
                    opt_.inner + "' is not");
  ProgressiveWriter probe(opt_);  // validate the ladder shape up front
}

std::vector<std::uint8_t> ProgressiveCompressor::compress(
    const Field& f, const ErrorBound& eb) {
  return ProgressiveWriter(opt_).encode(f, eb);
}

bool ProgressiveCompressor::supports_rank(int rank) const {
  return inner_->supports_rank(rank);
}

Field ProgressiveCompressor::decompress_impl(
    std::span<const std::uint8_t> stream) {
  auto reader = ProgressiveReader::open(stream, opt_.factory);
  if (!reader.ok())
    throw Error(reader.status().code, reader.status().str());
  auto f = (*reader)->read((*reader)->present() - 1);
  if (!f.ok()) throw Error(f.status().code, f.status().str());
  return std::move(*f);
}

}  // namespace aesz::progressive
