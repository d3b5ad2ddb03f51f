// Temporal subsystem (src/temporal/): the residual timestep codec, the
// appendable AETC container, and their hostile-input behavior. The
// acceptance contracts under test:
//   - byte-level determinism: same sequence + same knobs => identical
//     AETC bytes, including across a close/reopen/append cycle;
//   - every decoded timestep honors the per-element bound, for abs and
//     rel modes, across >= 2 inner codecs including parallel:AE-SZ;
//   - corruption at any record boundary is a typed error, never a crash;
//   - a truncated final append recovers to the last complete timestep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "data/synth.hpp"
#include "format/container.hpp"
#include "temporal/aetc.hpp"
#include "temporal/temporal.hpp"
#include "util/rng.hpp"

namespace aesz::temporal {
namespace {

// A slowly advected 2-D field: frame-to-frame deltas are small relative
// to the field's range, the regime where residual coding wins.
Field advected_frame(std::size_t t, std::size_t h = 32, std::size_t w = 48) {
  return synth::value_noise_2d(h, w, /*octaves=*/3, /*cells0=*/6.0,
                               /*seed=*/77, /*tphase=*/0.15 * static_cast<double>(t));
}

std::vector<Field> advected_sequence(std::size_t n) {
  std::vector<Field> frames;
  frames.reserve(n);
  for (std::size_t t = 0; t < n; ++t) frames.push_back(advected_frame(t));
  return frames;
}

double max_abs_error(const Field& a, const Field& b) {
  double worst = 0.0;
  auto av = a.values();
  auto bv = b.values();
  for (std::size_t i = 0; i < av.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(av[i]) -
                                     static_cast<double>(bv[i])));
  return worst;
}

std::vector<std::uint8_t> compress_sequence(const std::vector<Field>& frames,
                                            TemporalWriter::Options opt,
                                            const ErrorBound& eb) {
  TemporalWriter w(frames[0].dims(), eb, std::move(opt));
  for (const Field& f : frames) w.append(f);
  return w.bytes();
}

// ------------------------------------------------- error-bound matrix ----

struct BoundCase {
  const char* inner;
  ErrorBound eb;
};

class TemporalBounds : public ::testing::TestWithParam<BoundCase> {};

TEST_P(TemporalBounds, EveryDecodedTimestepHonorsThePerElementBound) {
  const auto& p = GetParam();
  const auto frames = advected_sequence(10);
  TemporalWriter::Options opt;
  opt.inner = p.inner;
  opt.gop = 4;
  TemporalWriter w(frames[0].dims(), p.eb, opt);
  std::vector<TemporalWriter::AppendResult> results;
  for (const Field& f : frames) results.push_back(w.append(f));

  // Auto mode on an advected field must actually exercise BOTH paths —
  // a bound test that never decodes a residual proves nothing.
  bool saw_residual = false, saw_intra = false;
  for (const auto& r : results) {
    saw_residual |= r.mode == kModeResidual;
    saw_intra |= r.mode == kModeIntra;
  }
  EXPECT_TRUE(saw_intra);
  EXPECT_TRUE(saw_residual) << "sequence never chose residual coding";

  const auto artifact = w.bytes();
  auto reader = TemporalReader::open(artifact);
  ASSERT_TRUE(reader.ok()) << reader.status().str();
  ASSERT_EQ((*reader)->timesteps(), frames.size());
  for (std::size_t t = 0; t < frames.size(); ++t) {
    auto dec = (*reader)->read(t);
    ASSERT_TRUE(dec.ok()) << "t=" << t << ": " << dec.status().str();
    const double tol =
        p.eb.absolute(frames[t].value_range()) * (1.0 + 1e-6);
    EXPECT_LE(max_abs_error(frames[t], *dec), tol) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    InnerCodecs, TemporalBounds,
    ::testing::Values(BoundCase{"SZ2.1", ErrorBound::Abs(1e-3)},
                      BoundCase{"SZ2.1", ErrorBound::Rel(1e-3)},
                      BoundCase{"SZinterp", ErrorBound::Abs(1e-3)},
                      BoundCase{"SZinterp", ErrorBound::Rel(1e-3)},
                      BoundCase{"parallel:AE-SZ", ErrorBound::Abs(1e-2)},
                      BoundCase{"parallel:AE-SZ", ErrorBound::Rel(1e-2)}),
    [](const auto& info) {
      std::string name = std::string(info.param.inner) + "_" +
                         eb_mode_name(info.param.eb.mode());
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// ------------------------------------------------------- determinism ----

TEST(TemporalDeterminism, SameSequenceSameKnobsSameBytes) {
  const auto frames = advected_sequence(8);
  TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 4;
  const auto a = compress_sequence(frames, opt, ErrorBound::Rel(1e-3));
  const auto b = compress_sequence(frames, opt, ErrorBound::Rel(1e-3));
  EXPECT_EQ(a, b);
}

TEST(TemporalDeterminism, ReopenAppendMatchesContinuousWrite) {
  const auto frames = advected_sequence(9);
  TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 4;
  const ErrorBound eb = ErrorBound::Rel(1e-3);

  const auto continuous = compress_sequence(frames, opt, eb);

  // Write 5, serialize, reopen, append the remaining 4: the encoder's
  // reference chain must be rebuilt bit-identically from the artifact.
  TemporalWriter first(frames[0].dims(), eb, opt);
  for (std::size_t t = 0; t < 5; ++t) first.append(frames[t]);
  const auto half = first.bytes();
  auto reopened = TemporalWriter::open(half);
  ASSERT_TRUE(reopened.ok()) << reopened.status().str();
  for (std::size_t t = 5; t < frames.size(); ++t)
    (*reopened)->append(frames[t]);
  EXPECT_EQ((*reopened)->bytes(), continuous);
}

TEST(TemporalDeterminism, ResidualBeatsIndependentSnapshotsOnAdvectedData) {
  const auto frames = advected_sequence(8);
  TemporalWriter::Options residual;
  residual.inner = "SZ2.1";
  residual.gop = 8;
  TemporalWriter::Options intra = residual;
  intra.mode = Mode::kIntra;
  const auto eb = ErrorBound::Rel(1e-3);
  EXPECT_LT(compress_sequence(frames, residual, eb).size(),
            compress_sequence(frames, intra, eb).size());
}

// ------------------------------------------------------ gop cadence ----

TEST(TemporalGop, KeyframesLandOnTheGopCadence) {
  const auto frames = advected_sequence(9);
  TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 3;
  opt.mode = Mode::kResidual;  // everything between keyframes residual
  TemporalWriter w(frames[0].dims(), ErrorBound::Rel(1e-3), opt);
  for (std::size_t t = 0; t < frames.size(); ++t) {
    const auto r = w.append(frames[t]);
    EXPECT_EQ(r.mode, t % 3 == 0 ? kModeIntra : kModeResidual) << "t=" << t;
  }
}

TEST(TemporalGop, GopZeroMeansSingleLeadingKeyframe) {
  const auto frames = advected_sequence(6);
  TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 0;
  opt.mode = Mode::kResidual;
  TemporalWriter w(frames[0].dims(), ErrorBound::Rel(1e-3), opt);
  for (std::size_t t = 0; t < frames.size(); ++t)
    EXPECT_EQ(w.append(frames[t]).mode, t == 0 ? kModeIntra : kModeResidual);
}

// ----------------------------------------------------- random access ----

TEST(TemporalReadback, RandomAccessMatchesSequentialDecode) {
  const auto frames = advected_sequence(10);
  TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 4;
  TemporalWriter w(frames[0].dims(), ErrorBound::Rel(1e-3), opt);
  for (const Field& f : frames) w.append(f);
  const auto artifact = w.bytes();

  auto reader = TemporalReader::open(artifact);
  ASSERT_TRUE(reader.ok());
  std::vector<std::vector<float>> sequential;
  for (std::size_t t = 0; t < frames.size(); ++t) {
    auto dec = (*reader)->read(t);
    ASSERT_TRUE(dec.ok());
    sequential.emplace_back(dec->values().begin(), dec->values().end());
  }
  // Out-of-order reads (seeks backwards across keyframes, repeats) must
  // reconstruct exactly the same frames as the sequential pass — and so
  // must the writer's own read path.
  for (std::size_t t : {9u, 0u, 5u, 5u, 3u, 8u, 1u}) {
    auto dec = (*reader)->read(t);
    ASSERT_TRUE(dec.ok()) << "t=" << t;
    EXPECT_TRUE(std::equal(sequential[t].begin(), sequential[t].end(),
                           dec->values().begin()))
        << "t=" << t;
    auto via_writer = w.read(t);
    ASSERT_TRUE(via_writer.ok()) << "t=" << t;
    EXPECT_TRUE(std::equal(sequential[t].begin(), sequential[t].end(),
                           via_writer->values().begin()))
        << "t=" << t;
  }
  auto oob = (*reader)->read(frames.size());
  EXPECT_FALSE(oob.ok());
  EXPECT_EQ(oob.status().code, ErrCode::kInvalidArgument);
}

// ------------------------------------------------- hostile containers ----

std::vector<std::uint8_t> small_artifact(std::size_t timesteps = 5) {
  TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 2;
  return compress_sequence(advected_sequence(timesteps), opt,
                           ErrorBound::Rel(1e-3));
}

TEST(AetcHostile, TruncationAtEveryLengthIsATypedError) {
  const auto artifact = small_artifact();
  for (std::size_t len = 0; len < artifact.size(); ++len) {
    std::span<const std::uint8_t> prefix(artifact.data(), len);
    auto parsed = read_stream(prefix);
    EXPECT_FALSE(parsed.ok()) << "len=" << len;
  }
  EXPECT_TRUE(read_stream(artifact).ok());
}

TEST(AetcHostile, SingleByteCorruptionNeverCrashesStrictRead) {
  const auto artifact = small_artifact(3);
  for (std::size_t i = 0; i < artifact.size(); ++i) {
    auto bad = artifact;
    bad[i] ^= 0xFF;
    auto parsed = read_stream(bad);
    if (!parsed.ok()) continue;  // typed rejection — fine
    // A flip the index can't see (payload interior) must still surface
    // as a typed decode error or a valid decode, never a crash.
    auto reader = TemporalReader::open(bad);
    if (!reader.ok()) continue;
    for (std::size_t t = 0; t < (*reader)->timesteps(); ++t)
      (void)(*reader)->read(t);
  }
}

TEST(AetcHostile, CorruptionAtEveryRecordBoundaryIsRejected) {
  const auto artifact = small_artifact();
  auto info = read_stream(artifact);
  ASSERT_TRUE(info.ok());
  for (const RecordInfo& rec : info->records) {
    // Stomp the record marker: strict read must reject the index/record
    // disagreement, and recovery must stop at the previous record.
    auto bad = artifact;
    bad[rec.offset] = 0x00;
    EXPECT_FALSE(read_stream(bad).ok()) << "offset=" << rec.offset;
    auto recovered = recover_stream(bad);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->records.size(),
              static_cast<std::size_t>(&rec - info->records.data()));
  }
}

TEST(AetcHostile, TruncatedFinalAppendRecoversToLastCompleteTimestep) {
  const auto frames = advected_sequence(6);
  TemporalWriter::Options opt;
  opt.inner = "SZ2.1";
  opt.gop = 2;
  const ErrorBound eb = ErrorBound::Rel(1e-3);
  TemporalWriter w(frames[0].dims(), eb, opt);
  for (std::size_t t = 0; t + 1 < frames.size(); ++t) w.append(frames[t]);
  const std::size_t body_before = w.body_bytes();
  w.append(frames.back());
  const auto artifact = w.bytes();

  // A crash mid-append: the final record was partially written and the
  // footer never made it. Strict read fails; recovery returns the first
  // 5 timesteps and reopening for append continues deterministically.
  std::vector<std::uint8_t> torn(artifact.begin(),
                                 artifact.begin() + body_before + 7);
  EXPECT_FALSE(read_stream(torn).ok());
  auto recovered = recover_stream(torn);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), frames.size() - 1);
  EXPECT_EQ(recovered->body_bytes, body_before);

  TemporalWriter::Options reopen_opt;
  auto reopened = TemporalWriter::open(torn, reopen_opt, /*recover=*/true);
  ASSERT_TRUE(reopened.ok()) << reopened.status().str();
  (*reopened)->append(frames.back());
  EXPECT_EQ((*reopened)->bytes(), artifact);
}

TEST(AetcHostile, HeaderFieldValidation) {
  const auto artifact = small_artifact(2);
  {
    auto bad = artifact;
    bad[4] = kFormatVersion + 1;  // future container version
    auto parsed = read_stream(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code, ErrCode::kBadHeader);
  }
  {
    auto bad = artifact;
    bad[0] ^= 0xFF;  // magic
    auto parsed = read_stream(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code, ErrCode::kBadMagic);
    EXPECT_EQ(format::peek(bad).status().code, ErrCode::kBadMagic);
  }
  EXPECT_EQ(format::peek(artifact).value().magic, kStreamMagic);
}

TEST(AetcHostile, UnknownInnerCodecIsUnsupportedNotACrash) {
  const auto header = write_stream_header("no-such-codec", Dims(8, 8),
                                          ErrorBound::Rel(1e-3), 4);
  std::vector<std::uint8_t> body = header;
  StreamInfo empty;
  const auto footer = write_footer(empty.records);
  body.insert(body.end(), footer.begin(), footer.end());
  auto reader = TemporalReader::open(body);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code, ErrCode::kUnsupported);
}

TEST(AetcHostile, RandomByteSoupNeverCrashes) {
  Rng rng(20260809);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> soup(rng.below(512));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.below(256));
    // Lead with the magic half the time so the parser gets past byte 4.
    if (iter % 2 == 0 && soup.size() >= 4)
      std::memcpy(soup.data(), &kStreamMagic, 4);
    (void)read_stream(soup);
    (void)recover_stream(soup);
  }
}

}  // namespace
}  // namespace aesz::temporal
