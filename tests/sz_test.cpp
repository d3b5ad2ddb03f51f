#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/synth.hpp"
#include "lossless/lz.hpp"
#include "metrics/metrics.hpp"
#include "sz/common.hpp"
#include "sz/sz21.hpp"
#include "sz/szauto.hpp"
#include "sz/szinterp.hpp"

namespace aesz {
namespace {

Field make_field(int kind) {
  switch (kind) {
    case 0: return synth::cesm_cldhgh(64, 96, 50);              // 2-D plateaus
    case 1: return synth::cesm_freqsh(48, 80, 50);              // 2-D smooth
    case 2: {
      Field f = synth::nyx_baryon_density(24, 42);
      f.log_transform();
      return f;
    }
    case 3: return synth::hurricane_u(8, 40, 40, 43);           // 3-D vortex
    case 4: return synth::rtm(24, 24, 24, 1510);                // 3-D wave
    default: {
      // 1-D synthetic series.
      Field f{Dims(std::size_t{4096})};
      for (std::size_t i = 0; i < f.size(); ++i)
        f.at(i) = std::sin(0.01f * static_cast<float>(i)) +
                  0.1f * std::sin(0.3f * static_cast<float>(i));
      return f;
    }
  }
}

struct Case {
  int field_kind;
  double rel_eb;
};

void check_roundtrip(Compressor& c, const Field& f, double rel_eb) {
  const auto stream = c.compress(f, rel_eb);
  Field g = c.decompress(stream).value();
  ASSERT_EQ(g.dims().rank, f.dims().rank);
  ASSERT_EQ(g.size(), f.size());
  const double abs_eb = rel_eb * f.value_range();
  const double err = metrics::max_abs_err(f.values(), g.values());
  EXPECT_LE(err, abs_eb * (1.0 + 1e-9))
      << c.name() << " violated the bound on " << f.dims().str();
  EXPECT_LT(stream.size(), f.size() * sizeof(float))
      << c.name() << " failed to compress at all";
}

class SZ21Property : public ::testing::TestWithParam<Case> {};
TEST_P(SZ21Property, ErrorBoundHolds) {
  SZ21 c;
  check_roundtrip(c, make_field(GetParam().field_kind), GetParam().rel_eb);
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, SZ21Property,
    ::testing::Values(Case{0, 1e-2}, Case{0, 1e-3}, Case{0, 1e-4},
                      Case{1, 1e-2}, Case{1, 1e-4}, Case{2, 1e-2},
                      Case{2, 1e-3}, Case{3, 1e-3}, Case{4, 1e-2},
                      Case{4, 1e-4}, Case{5, 1e-3}, Case{0, 1e-1}));

class SZAutoProperty : public ::testing::TestWithParam<Case> {};
TEST_P(SZAutoProperty, ErrorBoundHolds) {
  SZAuto c;
  check_roundtrip(c, make_field(GetParam().field_kind), GetParam().rel_eb);
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, SZAutoProperty,
    ::testing::Values(Case{0, 1e-2}, Case{1, 1e-3}, Case{2, 1e-2},
                      Case{3, 1e-3}, Case{4, 1e-2}, Case{5, 1e-3}));

class SZInterpProperty : public ::testing::TestWithParam<Case> {};
TEST_P(SZInterpProperty, ErrorBoundHolds) {
  SZInterp c;
  check_roundtrip(c, make_field(GetParam().field_kind), GetParam().rel_eb);
}
INSTANTIATE_TEST_SUITE_P(
    Sweep, SZInterpProperty,
    ::testing::Values(Case{0, 1e-2}, Case{0, 1e-4}, Case{1, 1e-3},
                      Case{2, 1e-2}, Case{2, 1e-4}, Case{3, 1e-3},
                      Case{4, 1e-2}, Case{5, 1e-3}, Case{1, 1e-1}));

/// Reseals `stream` with the lz blob that starts at byte `at` decompressed,
/// passed through `edit` and recompressed.
template <class Edit>
std::vector<std::uint8_t> reseal_blob(std::span<const std::uint8_t> stream,
                                      std::size_t at, Edit edit) {
  ByteReader r(stream.subspan(at));
  auto bytes = lz::decompress(r.get_blob());
  edit(bytes);
  ByteWriter w;
  w.put_bytes(stream.first(at));
  w.put_blob(lz::compress(bytes));
  w.put_bytes(r.rest());
  return sz::seal_stream(w.take());
}

TEST(SZ21, CompressesSmoothFieldWell) {
  SZ21 c;
  Field f = synth::cesm_freqsh(128, 128, 50);
  const auto stream = c.compress(f, 1e-2);
  EXPECT_GT(metrics::compression_ratio(f.size(), stream.size()), 8.0);
}

TEST(SZ21, RegressionHelpsOnGradientField) {
  // A field of tilted planes: regression should beat pure Lorenzo's rate.
  Field f(Dims(96, 96));
  for (std::size_t i = 0; i < 96; ++i)
    for (std::size_t j = 0; j < 96; ++j)
      f.at2(i, j) = 0.3f * i + 0.7f * j +
                    5.0f * std::sin(0.05f * i) * std::cos(0.05f * j);
  SZ21 with;
  SZ21 without(SZ21::Options{.enable_regression = false});
  const auto a = with.compress(f, 1e-3);
  const auto b = without.compress(f, 1e-3);
  EXPECT_LE(a.size(), b.size() * 11 / 10);  // never much worse
}

TEST(SZ21, TinyFieldRoundtrip) {
  // Fields smaller than one block cannot beat the header overhead; only the
  // bound and the dims must survive.
  Field f(Dims(3, 3), 1.0f);
  f.at2(1, 1) = 2.0f;
  SZ21 c;
  Field g = c.decompress(c.compress(f, 1e-3)).value();
  ASSERT_EQ(g.size(), f.size());
  EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
            1e-3 * f.value_range() * (1 + 1e-9));
}

TEST(SZ21, RejectsZeroBound) {
  SZ21 c;
  Field f(Dims(8, 8), 1.0f);
  EXPECT_THROW((void)c.compress(f, 0.0), Error);
}

TEST(SZ21, ExtraRegressionCoefficientIsCorruptStream) {
  // Tilted planes, so some blocks carry regression coefficients.
  Field f(Dims(40, 40));
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t j = 0; j < 40; ++j)
      f.at2(i, j) = 0.3f * static_cast<float>(i) +
                    0.7f * static_cast<float>(j) +
                    static_cast<float>((i * 31 + j * 17) % 7) * 0.01f;
  SZ21 c;
  const auto stream = c.compress(f, ErrorBound::Abs(1e-3));
  ASSERT_TRUE(c.decompress(stream).ok());
  // Reseal the stream with one more coefficient (varint 0) in its blob.
  ByteReader r(stream);
  ASSERT_TRUE(sz::read_header(r, SZ21::kStreamMagic).ok());
  r.get_blob();  // block flags
  auto result = c.decompress(reseal_blob(
      stream, r.pos(), [](std::vector<std::uint8_t>& coeffs) {
        ASSERT_FALSE(coeffs.empty());
        coeffs.push_back(0);
      }));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code, ErrCode::kCorruptStream)
      << result.status().str();
}

TEST(SZ21, ExtraFlagByteIsCorruptStream) {
  Field f = make_field(1);
  SZ21 c;
  const auto stream = c.compress(f, ErrorBound::Abs(1e-3));
  ASSERT_TRUE(c.decompress(stream).ok());
  ByteReader r(stream);
  ASSERT_TRUE(sz::read_header(r, SZ21::kStreamMagic).ok());
  auto result = c.decompress(reseal_blob(
      stream, r.pos(), [](std::vector<std::uint8_t>& flags) {
        flags.push_back(0);
      }));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code, ErrCode::kCorruptStream)
      << result.status().str();
}

TEST(SZ21, RejectsForeignStream) {
  SZAuto other;
  Field f = make_field(1);
  const auto stream = other.compress(f, 1e-3);
  SZ21 c;
  auto result = c.decompress(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code, ErrCode::kBadMagic);
}

TEST(SZAuto, PicksSecondOrderOnQuadratic) {
  // Smooth curved field: second-order should win and compress better than
  // what a pure first-order pass would produce under a tight bound.
  Field f(Dims(64, 64, 16));
  for (std::size_t i = 0; i < 64; ++i)
    for (std::size_t j = 0; j < 64; ++j)
      for (std::size_t k = 0; k < 16; ++k)
        f.at3(i, j, k) = 0.01f * i * i + 0.02f * j * j + 0.05f * k * k;
  SZAuto c;
  const auto stream = c.compress(f, 1e-4);
  Field g = c.decompress(stream).value();
  EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
            1e-4 * f.value_range() * (1 + 1e-9));
  // The second-order stencil is exact on the original values; residuals are
  // dominated by recon-feedback quantization noise (sum |w| ~ 63), so the
  // ratio is solid but far from the lossless regime.
  EXPECT_GT(metrics::compression_ratio(f.size(), stream.size()), 4.0);
}

TEST(SZInterp, ExtraAnchorIsCorruptStream) {
  Field f = synth::value_noise_2d(40, 40, 3, 4.0, 17);
  SZInterp c;
  const auto stream = c.compress(f, ErrorBound::Abs(1e-3));
  ASSERT_TRUE(c.decompress(stream).ok());
  // Reseal the stream with one more value in its anchor blob.
  ByteReader r(stream);
  ASSERT_TRUE(sz::read_header(r, SZInterp::kStreamMagic).ok());
  r.get_varint();          // refinement stride
  r.get<std::uint8_t>();   // cubic flag
  auto result = c.decompress(reseal_blob(
      stream, r.pos(), [](std::vector<std::uint8_t>& bytes) {
        ByteReader ar(bytes);
        auto anchors = ar.get_array<float>();
        anchors.push_back(0.5f);
        ByteWriter aw;
        aw.put_array<float>(anchors);
        bytes = aw.bytes();
      }));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code, ErrCode::kCorruptStream)
      << result.status().str();
}

TEST(SZInterp, LinearModeStillBounded) {
  SZInterp c(SZInterp::Options{.max_stride = 16, .cubic = false});
  check_roundtrip(c, make_field(2), 1e-3);
}

TEST(SZInterp, BeatsLorenzoAtLowBitRate) {
  // The paper's headline ordering at aggressive bounds on smooth data:
  // interpolation >= Lorenzo-based SZ in compression ratio.
  Field f = synth::cesm_freqsh(128, 128, 50);
  SZInterp si;
  SZAuto sa;
  const auto a = si.compress(f, 5e-2);
  const auto b = sa.compress(f, 5e-2);
  EXPECT_LT(a.size(), b.size() * 2);  // same order of magnitude or better
}

TEST(SZInterp, NonPowerOfTwoDims) {
  Field f = synth::value_noise_3d(17, 23, 29, 3, 2.0, 9);
  SZInterp c;
  check_roundtrip(c, f, 1e-3);
}

TEST(SZInterp, OneDimensionalSeries) {
  Field f{Dims(std::size_t{1000})};
  for (std::size_t i = 0; i < 1000; ++i)
    f.at(i) = std::cos(0.02f * static_cast<float>(i));
  SZInterp c;
  check_roundtrip(c, f, 1e-3);
}

TEST(StreamFormat, ZigzagRoundtrip) {
  for (std::int64_t v :
       std::initializer_list<std::int64_t>{0, 1, -1, 2, -2, 1000000,
                                           -1000000, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(sz::unzigzag(sz::zigzag(v)), v) << v;
  }
  // Small magnitudes map to small codes (the property varints exploit).
  EXPECT_LE(sz::zigzag(-1), 2u);
  EXPECT_LE(sz::zigzag(1), 2u);
}

TEST(StreamFormat, HeaderRoundtrip) {
  ByteWriter w;
  sz::write_header(w, 0xABCD1234u, Dims(7, 9, 11), ErrorBound::Abs(2.5e-4),
                   2.5e-4);
  const auto bytes = sz::seal_stream(w.take());
  ByteReader r(bytes);
  auto h = sz::read_header(r, 0xABCD1234u);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->dims, Dims(7, 9, 11));
  EXPECT_EQ(h->eb, ErrorBound::Abs(2.5e-4));
  EXPECT_EQ(h->abs_eb, 2.5e-4);
}

TEST(StreamFormat, HeaderMagicMismatchIsTypedError) {
  ByteWriter w;
  sz::write_header(w, 0x11111111u, Dims(4), ErrorBound::Rel(1e-3), 1e-3);
  const auto bytes = w.take();
  ByteReader r(bytes);
  const auto h = sz::read_header(r, 0x22222222u);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code, ErrCode::kBadMagic);
}

TEST(StreamFormat, HeaderRejectsHostileDims) {
  // A header declaring 2^20 x 2^20 x 2^20 elements must be rejected before
  // anything tries to allocate that field.
  ByteWriter w;
  w.put(0xABCD1234u);
  w.put(sz::kFormatVersion);
  w.put(std::uint32_t{0});  // crc placeholder
  w.put(std::uint8_t{3});
  for (int i = 0; i < 3; ++i) w.put_varint(std::uint64_t{1} << 20);
  w.put(static_cast<std::uint8_t>(EbMode::kRel));
  w.put(1e-3);
  w.put(1e-3);
  const auto bytes = sz::seal_stream(w.take());
  ByteReader r(bytes);
  const auto h = sz::read_header(r, 0xABCD1234u);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code, ErrCode::kBadHeader);
}

TEST(StreamFormat, HeaderRejectsZeroDim) {
  ByteWriter w;
  w.put(0xABCD1234u);
  w.put(sz::kFormatVersion);
  w.put(std::uint32_t{0});  // crc placeholder
  w.put(std::uint8_t{2});
  w.put_varint(16);
  w.put_varint(0);
  w.put(static_cast<std::uint8_t>(EbMode::kRel));
  w.put(1e-3);
  w.put(1e-3);
  const auto bytes = sz::seal_stream(w.take());
  ByteReader r(bytes);
  const auto h = sz::read_header(r, 0xABCD1234u);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code, ErrCode::kBadHeader);
}

TEST(StreamFormat, HeaderTruncationIsTypedError) {
  ByteWriter w;
  sz::write_header(w, 0xABCD1234u, Dims(7, 9, 11), ErrorBound::Rel(1e-3),
                   1e-3);
  const auto bytes = sz::seal_stream(w.take());
  // Cuts inside magic|version|crc are structural truncation; once the crc
  // field is readable, the v3 whole-payload checksum catches the missing
  // tail first — either way a typed error, never a bogus parse.
  const std::size_t crc_end = sz::kCrcOffset + sizeof(std::uint32_t);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> part(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    ByteReader r(part);
    const auto h = sz::read_header(r, 0xABCD1234u);
    ASSERT_FALSE(h.ok()) << "cut at " << cut;
    EXPECT_EQ(h.status().code, cut < crc_end ? ErrCode::kTruncated
                                             : ErrCode::kChecksumMismatch)
        << "cut at " << cut;
  }
}

TEST(AllSZ, ConstantFieldCompressesExtremely) {
  Field f(Dims(64, 64), 3.14f);
  for (auto* c : std::initializer_list<Compressor*>{
           new SZ21, new SZAuto, new SZInterp}) {
    std::unique_ptr<Compressor> owned(c);
    const auto stream = owned->compress(f, 1e-3);
    Field g = owned->decompress(stream).value();
    EXPECT_LE(metrics::max_abs_err(f.values(), g.values()), 1e-3);
    EXPECT_GT(metrics::compression_ratio(f.size(), stream.size()), 50.0)
        << owned->name();
  }
}

}  // namespace
}  // namespace aesz
