#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/bytestream.hpp"
#include "util/error.hpp"

namespace aesz {

/// Linear-scale quantizer with strict error-bound semantics, as in SZ
/// (Tao et al., IPDPS'17). Residual r = orig - pred maps to an integer bin
/// q = round(r / 2e); reconstruction pred + 2e*q is within e of orig by
/// construction. Codes are biased by kRadius so they fit u16; code 0 is
/// reserved for "unpredictable" points whose bin falls outside the 65536-bin
/// range (or where float rounding would break the bound) — those values are
/// stored verbatim in a side stream.
class LinearQuantizer {
 public:
  static constexpr std::uint16_t kUnpredictable = 0;

  static constexpr long kRadius = 32768;

  explicit LinearQuantizer(double abs_eb)
      : eb_(abs_eb), two_eb_(2.0 * abs_eb),
        inv_2eb_(abs_eb > 0 ? 0.5 / abs_eb : 0.0) {}

  double error_bound() const { return eb_; }

  /// Quantize one value. On success returns the code and sets `recon` to the
  /// bounded reconstruction; on failure returns kUnpredictable, sets recon =
  /// orig, and the caller must append orig to its unpredictable stream.
  std::uint16_t quantize(float orig, float pred, float& recon) {
    const double diff = static_cast<double>(orig) - static_cast<double>(pred);
    const double qd = std::nearbyint(diff * inv_2eb_);
    if (std::abs(qd) < kRadius) {
      const auto q = static_cast<long>(qd);
      const float r = static_cast<float>(
          static_cast<double>(pred) + two_eb_ * static_cast<double>(q));
      // Float-precision guard: the double-precision bin can still round to
      // a float32 outside the bound when |pred| >> eb.
      if (std::abs(static_cast<double>(r) - static_cast<double>(orig)) <=
          eb_) {
        recon = r;
        return static_cast<std::uint16_t>(q + kRadius);
      }
    }
    recon = orig;
    return kUnpredictable;
  }

  /// Inverse map used by decompression (code != kUnpredictable).
  float recover(float pred, std::uint16_t code) const {
    const long q = static_cast<long>(code) - kRadius;
    return static_cast<float>(static_cast<double>(pred) +
                              two_eb_ * static_cast<double>(q));
  }

 private:
  double eb_;
  double two_eb_;  // 2.0 * eb_, exactly: the bin width
  double inv_2eb_;
};

/// The residual back end every prediction codec shares (SZ's quantized-code
/// stream): each value is quantized against the caller's prediction, codes
/// go to one Huffman + LZ blob and the values the quantizer cannot bound
/// (out-of-range bins, NaN, Inf) go verbatim to one LZ'd float blob. The
/// unpredictable stream is the only place non-finite input survives, so it
/// round-trips bit-exactly.
class QuantEncoder {
 public:
  QuantEncoder(double abs_eb, std::size_t n) : quant_(abs_eb) {
    codes_.reserve(n);
  }

  /// Code one value; returns the reconstruction the decoder will produce.
  float code(float orig, float pred) {
    float recon = orig;
    const std::uint16_t c = quant_.quantize(orig, pred, recon);
    if (c == LinearQuantizer::kUnpredictable) unpred_.push_back(orig);
    codes_.push_back(c);
    return recon;
  }

  std::size_t unpredictable() const { return unpred_.size(); }

  /// Append the code blob, then the unpredictable blob. Returns the size
  /// of the code blob.
  std::size_t write(ByteWriter& w) const;

 private:
  LinearQuantizer quant_;
  std::vector<std::uint16_t> codes_;
  std::vector<float> unpred_;
};

/// Mirror of QuantEncoder: reads both blobs and hands back one decoded
/// value per next() call, in the order the encoder coded them.
class QuantDecoder {
 public:
  /// `n` is the code count the caller's geometry implies; a stream with a
  /// different count, or too few unpredictable values, is kCorruptStream.
  QuantDecoder(ByteReader& r, double abs_eb, std::size_t n);

  /// Decode the next value; called exactly `n` times.
  float next(float pred) {
    const std::uint16_t c = codes_[ci_++];
    if (c != LinearQuantizer::kUnpredictable) return quant_.recover(pred, c);
    if (ui_ == unpred_.size())
      throw Error(ErrCode::kCorruptStream,
                  "unpredictable-value stream underflow");
    return unpred_[ui_++];
  }

 private:
  LinearQuantizer quant_;
  std::vector<std::uint16_t> codes_;
  std::vector<float> unpred_;
  std::size_t ci_ = 0, ui_ = 0;
};

}  // namespace aesz
