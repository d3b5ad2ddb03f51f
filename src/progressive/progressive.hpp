#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/field.hpp"
#include "predictors/compressor.hpp"
#include "predictors/error_bound.hpp"
#include "predictors/registry.hpp"
#include "progressive/aepr.hpp"
#include "util/expected.hpp"

namespace aesz::progressive {

/// Default bound ladder: 3 layers whose absolute tolerances shrink by 4x
/// per refinement (layer 0 at 16x the final bound). Chosen so the coarse
/// base stays well under the 35% preview-byte budget on smooth fields
/// while two refinements reach the exact non-progressive guarantee.
constexpr std::size_t kDefaultLayers = 3;
constexpr double kDefaultFactor = 4.0;

/// Residual bound ladder over any error-bounded registry compressor:
/// layer 0 is the inner codec's stream of the field itself at the
/// loosest tolerance abs·factor^(L-1); layer i >= 1 is the inner stream
/// of the residual field − recon_{i−1}, compressed at abs·factor^(L-1-i),
/// where recon is rebuilt from the DECODED layers so the encoder's
/// reference chain is bit-identical to any reader's (the
/// temporal-subsystem discipline). After decoding layers 0..i the
/// per-element error is at most that layer's recorded tolerance; the
/// final layer lands exactly on the bound a non-progressive compress()
/// would have enforced.
class ProgressiveWriter {
 public:
  struct Options {
    std::string inner = "SZ2.1";
    std::size_t layers = kDefaultLayers;  // total layers, >= 1
    double factor = kDefaultFactor;       // bound ratio between layers, > 1
    CodecFactory factory;                 // empty = CodecRegistry
  };

  /// Throws aesz::Error(kInvalidArgument) on an unusable ladder shape.
  /// The inner codec is built per encode() (its rank depends on the
  /// field), so an unknown codec name surfaces there.
  explicit ProgressiveWriter(Options opt);
  ProgressiveWriter() : ProgressiveWriter(Options()) {}

  /// Recode `f` into a complete AEPR artifact. Throws aesz::Error on an
  /// unknown/unsupported inner codec, a non-error-bounded inner codec
  /// (the ladder's per-layer guarantee would be meaningless), or an
  /// unusable bound.
  std::vector<std::uint8_t> encode(const Field& f, const ErrorBound& eb);

  const Options& options() const { return opt_; }

 private:
  Options opt_;
};

/// Decodes layer prefixes out of a parsed AEPR artifact. Zero-copy: the
/// reader aliases the caller's bytes, which must outlive it. read(k)
/// decodes layers 0..k front to back (the decoder chain is memoized, so
/// refining a previous read costs only the new layers).
class ProgressiveReader {
 public:
  static Expected<std::unique_ptr<ProgressiveReader>> open(
      std::span<const std::uint8_t> stream, CodecFactory factory = {});

  /// Decode layers 0..k; k must be < present(). The result honors the
  /// recorded bound of layer k.
  Expected<Field> read(std::size_t k);

  /// Declared layers in the table / layers this stream actually carries.
  std::size_t layers() const { return info_.layers.size(); }
  std::size_t present() const { return info_.present; }

  /// The absolute tolerance guaranteed after decoding layers 0..k.
  double bound_after(std::size_t k) const { return info_.layers[k].abs_eb; }

  /// Bytes of the stream prefix carrying layers 0..k (see aepr.hpp).
  std::size_t prefix_bytes(std::size_t k) const {
    return progressive::prefix_bytes(info_, k);
  }

  const StreamInfo& info() const { return info_; }

 private:
  ProgressiveReader() = default;

  StreamInfo info_;
  std::unique_ptr<Compressor> codec_;
  Field recon_;            // sum of decoded layers 0..next_-1
  std::size_t next_ = 0;   // layers already folded into recon_
};

/// What truncate_to() answers: a valid AEPR prefix plus what it promises.
struct TruncateResult {
  std::size_t bytes = 0;       // prefix length (header + k+1 layers)
  std::size_t layers = 0;      // layers served (k+1)
  std::size_t total_layers = 0;
  double abs_eb = 0.0;         // the bound the prefix honors
};

/// Pure table math over a parsed stream — no codec, no decode (the
/// service read-partial path). `truncate_to_bytes` serves the largest
/// prefix fitting the budget, never less than the coarsest layer;
/// `truncate_to_bound` the smallest prefix meeting the target (best
/// effort when the target outruns the stream). Both fail only on a
/// malformed stream (typed, from aepr::read_stream) or an unusable
/// target bound.
Expected<TruncateResult> truncate_to_bytes(
    std::span<const std::uint8_t> stream, std::size_t budget);
Expected<TruncateResult> truncate_to_bound(
    std::span<const std::uint8_t> stream, const ErrorBound& target);

/// The `progressive:<codec>` registry wrapper: compress() recodes through
/// ProgressiveWriter with the default ladder, decompress() restores full
/// fidelity (all layers present in the stream). Partial decodes go
/// through ProgressiveReader/truncate_to — a Compressor returns one
/// field, not a fidelity menu.
class ProgressiveCompressor : public Compressor {
 public:
  /// Throws aesz::Error(kUnsupported) on an unknown inner codec or one
  /// that is not error-bounded (AE-B: a bound ladder needs bounds).
  explicit ProgressiveCompressor(ProgressiveWriter::Options opt, int rank);

  std::string name() const override { return "progressive:" + opt_.inner; }
  using Compressor::compress;
  std::vector<std::uint8_t> compress(const Field& f,
                                     const ErrorBound& eb) override;
  bool error_bounded() const override { return true; }
  bool supports_rank(int rank) const override;

 protected:
  Field decompress_impl(std::span<const std::uint8_t> stream) override;

 private:
  ProgressiveWriter::Options opt_;
  std::unique_ptr<Compressor> inner_;  // rank-probe + capability witness
};

}  // namespace aesz::progressive
