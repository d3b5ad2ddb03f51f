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
#include "temporal/aetc.hpp"
#include "util/expected.hpp"

namespace aesz::temporal {

/// Per-timestep coding policy of a temporal stream writer.
enum class Mode : std::uint8_t {
  kAuto = 0,      // trial-compress both ways, keep the smaller (tie: intra)
  kIntra = 1,     // every timestep independent (== snapshot compression)
  kResidual = 2,  // residual whenever a reference exists (keyframes aside)
};

Expected<Mode> parse_mode(const std::string& spec);
const char* mode_name(Mode m);

/// Residual temporal codec over any registry compressor: timestep t is
/// coded either intra (the inner codec stream of the frame itself) or as
/// the residual frame - reference, where the reference is the DECODED
/// previous timestep — never the original. That choice is what keeps the
/// per-element guarantee compositional: recon[t] = ref + recon_residual,
/// so |orig[t] - recon[t]| = |residual - recon_residual| <= the absolute
/// tolerance the residual was compressed under, regardless of how much
/// error the reference already carries. The encoder decodes its own
/// output after every step so its reference chain is bit-identical to any
/// decoder's.
///
/// Residuals are always compressed under EbMode::kAbs with the tolerance
/// the stream's bound resolves to for the ORIGINAL frame at t (rel/psnr
/// bounds resolve against each frame's own value range) — relative bounds
/// stay relative to the data, not to the residual.
///
/// Keyframes: step 0 is always intra; with gop > 0 every gop-th step is
/// forced intra, so seeking and corruption containment stay O(gop). Inner
/// codecs whose error_bounded() is false (AE-B, fixed-rate ZFP) are
/// forced all-intra — an unbounded residual chain would compound their
/// error without limit.
class TemporalCompressor {
 public:
  /// Takes ownership of a freshly built inner codec. Throws
  /// aesz::Error(kInvalidArgument/kUnsupported) on an unusable
  /// combination (bad gop, codec can't handle the rank).
  TemporalCompressor(std::unique_ptr<Compressor> codec, Dims dims,
                     ErrorBound eb, std::size_t gop, Mode mode);

  struct StepResult {
    std::uint8_t mode = kModeIntra;  // kModeIntra / kModeResidual
    double abs_eb = 0.0;             // resolved tolerance for this step
    std::vector<std::uint8_t> payload;
  };

  /// Encode the next timestep and advance the encoder's reference chain.
  /// Throws aesz::Error(kInvalidArgument) on a dims mismatch.
  StepResult compress_step(const Field& f);

  /// Reposition the chain explicitly: `ref` is the decoded frame of
  /// timestep `step - 1`. How a re-opened appender resumes mid-stream —
  /// `step` must be the absolute timestep count so the keyframe cadence
  /// (step % gop) continues exactly as if the stream had never been
  /// closed.
  void restore(Field ref, std::size_t step);

  std::size_t step() const { return step_; }
  Compressor& codec() { return *codec_; }

 private:
  std::unique_ptr<Compressor> codec_;
  Dims dims_;
  ErrorBound eb_;
  std::size_t gop_;
  Mode mode_;
  Field ref_;  // the decoded timestep step_ - 1
  std::size_t step_ = 0;
};

/// Assembles (or re-opens and extends) one AETC artifact: owns the
/// serialized body, the record index, and a TemporalCompressor whose
/// encoder chain matches the last appended timestep. bytes() is always a
/// complete artifact (body + footer), so callers persist by rewriting the
/// file tail after each append — and a crash between the two writes
/// leaves a file TemporalWriter::open(recover=true) brings back to the
/// last complete timestep.
class TemporalWriter {
 public:
  struct Options {
    std::string inner = "SZ2.1";
    std::size_t gop = 8;
    Mode mode = Mode::kAuto;
    CodecFactory factory;  // empty = CodecRegistry
  };

  /// Start an empty stream. Throws aesz::Error on an unknown codec,
  /// unusable bound, or unsupported rank.
  TemporalWriter(Dims dims, ErrorBound eb, Options opt);

  /// Re-open an existing artifact for appending. Strict parse by
  /// default; recover=true accepts a truncated tail (interrupted append)
  /// and resumes from the last complete timestep. The encoder reference
  /// chain is rebuilt by decoding forward from the last keyframe —
  /// O(gop) inner decodes, independent of stream length. The header pins
  /// inner codec, bound, AND gop (one stream keeps one seek cost), so
  /// opt.inner/opt.gop are ignored here; opt.mode/opt.factory govern the
  /// appends to come.
  static Expected<std::unique_ptr<TemporalWriter>> open(
      std::span<const std::uint8_t> stream, Options opt,
      bool recover = false);
  // GCC rejects `Options opt = {}` on a nested struct; same two-overload
  // workaround as service::Server's constructor.
  static Expected<std::unique_ptr<TemporalWriter>> open(
      std::span<const std::uint8_t> stream) {
    return open(stream, Options());
  }

  struct AppendResult {
    std::size_t timestep = 0;
    std::uint8_t mode = kModeIntra;
    double abs_eb = 0.0;
    std::size_t stored_bytes = 0;  // record bytes this append added
  };

  /// Compress and append one timestep. Throws aesz::Error on dims
  /// mismatch or inner-codec argument errors.
  AppendResult append(const Field& f);

  /// Decode timestep t (seeks to the nearest keyframe at or before t,
  /// then decodes forward — O(gop) inner decodes).
  Expected<Field> read(std::size_t t);

  /// The complete artifact: header + records + footer index.
  std::vector<std::uint8_t> bytes() const;

  /// The two halves of bytes(), for crash-safe persistence: a sync-mode
  /// writer stores body(), fsyncs, then appends footer() and fsyncs again
  /// — the records are durable on disk BEFORE the index that advertises
  /// them, so a crash between the phases leaves at worst a torn tail that
  /// open(recover=true) resumes from, never a footer pointing at records
  /// that were lost in the page cache.
  std::span<const std::uint8_t> body() const { return body_; }
  std::vector<std::uint8_t> footer() const {
    return write_footer(info_.records);
  }

  std::size_t timesteps() const { return info_.records.size(); }
  std::size_t body_bytes() const { return body_.size(); }
  const Dims& dims() const { return info_.dims; }
  const ErrorBound& eb() const { return info_.eb; }
  const std::string& inner() const { return info_.inner; }
  std::size_t gop() const { return info_.gop; }

 private:
  TemporalWriter() = default;

  /// Decode timestep t from scratch: seek to the nearest keyframe, then
  /// chain residuals forward — the read path, and the reopen that
  /// restores the encoder chain from the last timestep.
  Expected<Field> decode_at(std::size_t t);

  /// The header this stream was opened with (a re-opened v1 artifact keeps
  /// appending v1 records: aetc.hpp, one artifact, one format) and its
  /// record index. Record payload spans are NOT set — body_ reallocates;
  /// offset/length locate each record in it.
  StreamInfo info_;
  std::vector<std::uint8_t> body_;  // header + records, no footer
  std::unique_ptr<TemporalCompressor> enc_;
};

/// Decodes timesteps out of a parsed artifact. Zero-copy: the reader
/// aliases the caller's bytes, which must outlive it. Sequential reads
/// are O(1) amortized (the decoder chain is memoized); random reads cost
/// O(gop) inner decodes.
class TemporalReader {
 public:
  static Expected<std::unique_ptr<TemporalReader>> open(
      std::span<const std::uint8_t> stream, CodecFactory factory = {});

  Expected<Field> read(std::size_t t);

  std::size_t timesteps() const { return info_.records.size(); }
  const StreamInfo& info() const { return info_; }

 private:
  TemporalReader() = default;

  StreamInfo info_;
  std::unique_ptr<Compressor> codec_;
  Field ref_;             // the memoized decoder chain: timestep next_ - 1
  std::size_t next_ = 0;  // timestep the chain expects next (0 = none)
};

}  // namespace aesz::temporal
