#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "data/synth.hpp"
#include "format/container.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/container.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "sz/common.hpp"
#include "temporal/temporal.hpp"
#include "util/bytestream.hpp"

namespace aesz {
namespace {

CodecRegistry& reg() { return CodecRegistry::instance(); }

Field field_for_rank(int rank) {
  switch (rank) {
    case 1: {
      Field f{Dims(std::size_t{512})};
      for (std::size_t i = 0; i < f.size(); ++i)
        f.at(i) = std::sin(0.02f * static_cast<float>(i)) +
                  0.2f * std::sin(0.17f * static_cast<float>(i));
      return f;
    }
    case 2: return synth::cesm_freqsh(32, 48, 50);
    default: return synth::hurricane_u(16, 16, 16, 43);
  }
}

TEST(Registry, AllCodecsAndWrappersRegistered) {
  // Seven built-ins, one `parallel:<codec>` pipeline wrapper each, and one
  // `progressive:<codec>` layered wrapper per error-bounded built-in
  // (six: AE-B has no bound to ladder).
  const auto names = reg().names();
  ASSERT_EQ(names.size(), 20u);
  for (const char* base : {"AE-SZ", "SZ2.1", "SZauto", "SZinterp", "ZFP",
                           "AE-A", "AE-B"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), base) != names.end())
        << base << " missing from the registry";
    EXPECT_TRUE(reg().contains(base));
    const std::string wrapped = std::string("parallel:") + base;
    EXPECT_TRUE(reg().contains(wrapped)) << wrapped;
    // The wrapper advertises the inner codec's error-bound capability.
    EXPECT_EQ(reg().find(wrapped)->error_bounded,
              reg().find(base)->error_bounded)
        << wrapped;
    const std::string layered = std::string("progressive:") + base;
    EXPECT_EQ(reg().contains(layered),
              reg().find(base)->error_bounded)
        << layered;
  }
}

TEST(Registry, LookupIsCaseInsensitive) {
  EXPECT_TRUE(reg().contains("sz2.1"));
  EXPECT_TRUE(reg().contains("ZFP"));
  EXPECT_TRUE(reg().contains("zfp"));
  auto c = reg().create("ae-sz", 2);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*c)->name(), "AE-SZ");
}

TEST(Registry, UnknownCodecIsTypedError) {
  auto c = reg().create("SZ9000");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code, ErrCode::kUnsupported);
  // The message lists what IS available, for CLI ergonomics.
  EXPECT_NE(c.status().message.find("SZ2.1"), std::string::npos);
}

TEST(Registry, CreatedNamesMatchRegistryNames) {
  for (const auto& name : reg().names()) {
    for (int rank = 1; rank <= 3; ++rank) {
      auto c = reg().create(name, rank);
      ASSERT_TRUE(c.ok()) << name;
      EXPECT_EQ((*c)->name(), name);
      // The metadata flag (used by `list-codecs` without constructing the
      // codec) must agree with the instance.
      EXPECT_EQ(reg().find(name)->error_bounded, (*c)->error_bounded())
          << name;
    }
  }
}

/// The acceptance-criteria suite: every registered codec x {Abs, Rel}
/// bounds x 1-D/2-D/3-D synthetic fields round-trips within the bound
/// (non-error-bounded codecs and unsupported ranks are skipped via the
/// interface, not via name lists).
TEST(Registry, RoundTripEveryCodecBoundAndRank) {
  for (const auto& name : reg().names()) {
    for (int rank = 1; rank <= 3; ++rank) {
      auto created = reg().create(name, rank);
      ASSERT_TRUE(created.ok()) << name;
      std::unique_ptr<Compressor> c = std::move(created).value();
      if (!c->supports_rank(rank)) continue;
      const Field f = field_for_rank(rank);
      const double range = f.value_range();
      for (const ErrorBound& eb :
           {ErrorBound::Abs(1e-2 * range), ErrorBound::Rel(1e-2)}) {
        const auto stream = c->compress(f, eb);
        auto recon = c->decompress(stream);
        ASSERT_TRUE(recon.ok())
            << name << " rank " << rank << " " << eb.str() << ": "
            << recon.status().str();
        ASSERT_EQ(recon->dims(), f.dims()) << name;
        if (!c->error_bounded()) continue;  // AE-B: fixed ratio, no bound
        const double tol = eb.absolute(range);
        EXPECT_LE(metrics::max_abs_err(f.values(), recon->values()),
                  tol * (1 + 1e-9))
            << name << " violated " << eb.str() << " at rank " << rank;
      }
    }
  }
}

TEST(Registry, PsnrBoundMode) {
  // PSNR mode derives the tolerance from the uniform-noise model
  // (MSE = e^2/3); since max_err <= e, the worst guaranteed PSNR is the
  // target minus 10*log10(3) ~ 4.8 dB, and in practice it lands above the
  // target.
  auto c = reg().create("SZ2.1").value();
  const Field f = field_for_rank(2);
  const double target = 60.0;
  const auto stream = c->compress(f, ErrorBound::PSNR(target));
  Field g = c->decompress(stream).value();
  EXPECT_GE(metrics::psnr(f.values(), g.values()), target - 4.8);
}

TEST(Registry, ErrorBoundParse) {
  EXPECT_EQ(ErrorBound::parse("abs:1e-3").value(), ErrorBound::Abs(1e-3));
  EXPECT_EQ(ErrorBound::parse("REL:0.01").value(), ErrorBound::Rel(0.01));
  EXPECT_EQ(ErrorBound::parse("psnr:60").value(), ErrorBound::PSNR(60.0));
  EXPECT_EQ(ErrorBound::parse("1e-2").value(), ErrorBound::Rel(1e-2));
  // str() must survive a round-trip through parse(), including bounds
  // that a fixed-precision format would print as zero.
  EXPECT_EQ(ErrorBound::parse(ErrorBound::Rel(1e-7).str()).value(),
            ErrorBound::Rel(1e-7));
  for (const char* bad : {"", "pnsr:60", "rel:", "rel:zero", "rel:-1",
                          "abs:0", "rel:nan", "rel:inf"}) {
    const auto r = ErrorBound::parse(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code, ErrCode::kInvalidArgument) << bad;
  }
}

TEST(Registry, ErrorBoundAbsolute) {
  EXPECT_DOUBLE_EQ(ErrorBound::Abs(0.5).absolute(100.0), 0.5);
  EXPECT_DOUBLE_EQ(ErrorBound::Rel(1e-2).absolute(100.0), 1.0);
  EXPECT_DOUBLE_EQ(ErrorBound::Rel(1e-2).absolute(0.0), 1e-2);  // degenerate
  // psnr:60 on range 1: e = sqrt(3) * 10^-3.
  EXPECT_NEAR(ErrorBound::PSNR(60).absolute(1.0), std::sqrt(3.0) * 1e-3,
              1e-12);
}

TEST(Registry, IdentifyByMagic) {
  const Field f = field_for_rank(2);
  for (const char* name : {"SZ2.1", "SZauto", "SZinterp", "ZFP"}) {
    auto c = reg().create(name).value();
    const auto stream = c->compress(f, 1e-2);
    auto id = reg().identify(stream);
    ASSERT_TRUE(id.ok()) << name;
    EXPECT_EQ(*id, name);
  }
  EXPECT_EQ(reg().identify({}).status().code, ErrCode::kTruncated);
  const std::vector<std::uint8_t> junk{1, 2, 3, 4, 5};
  EXPECT_EQ(reg().identify(junk).status().code, ErrCode::kBadMagic);
}

/// Satellite regression for the identify()/docs drift: EVERY registered
/// magic resolves to its codec, and all three container formats (AEPC
/// parallel, AETC temporal, AEPR progressive) resolve through an
/// inner-codec lookup — not just the ones some test happened to pick.
TEST(Registry, IdentifyResolvesEveryRegisteredMagicAndAllContainers) {
  // Plain codecs: a stream leading with the registered magic identifies
  // as that codec (identify matches magics without parsing further).
  std::size_t with_magic = 0;
  for (const auto& name : reg().names()) {
    const CodecInfo* info = reg().find(name);
    ASSERT_NE(info, nullptr) << name;
    if (info->magic == 0) continue;  // container-format wrappers
    ++with_magic;
    ByteWriter w;
    w.put(info->magic);
    const auto stream = w.take();
    auto id = reg().identify(stream);
    ASSERT_TRUE(id.ok()) << name << ": " << id.status().str();
    EXPECT_EQ(*id, name);
  }
  EXPECT_EQ(with_magic, 7u);  // every built-in carries a distinct magic

  const Field f = field_for_rank(2);

  // AEPC parallel container -> parallel:<codec> via the inner MAGIC.
  {
    auto c = reg().create("parallel:SZ2.1", 2).value();
    auto id = reg().identify(c->compress(f, 1e-2));
    ASSERT_TRUE(id.ok()) << id.status().str();
    EXPECT_EQ(*id, "parallel:SZ2.1");
  }
  // AETC temporal container -> temporal:<codec> via the inner NAME.
  {
    temporal::TemporalWriter::Options opt;
    opt.inner = "SZ2.1";
    temporal::TemporalWriter w(f.dims(), ErrorBound::Rel(1e-2), opt);
    w.append(f);
    auto id = reg().identify(w.bytes());
    ASSERT_TRUE(id.ok()) << id.status().str();
    EXPECT_EQ(*id, "temporal:SZ2.1");
  }
  // AEPR progressive container -> progressive:<codec> via the inner NAME.
  {
    auto c = reg().create("progressive:SZ2.1", 2).value();
    auto id = reg().identify(c->compress(f, 1e-2));
    ASSERT_TRUE(id.ok()) << id.status().str();
    EXPECT_EQ(*id, "progressive:SZ2.1");
  }
}

TEST(Registry, LearnedCodecsAreDeterministicAcrossInstances) {
  // Fixed registry seeds: two independently created AE-SZ instances share
  // weights, produce byte-identical streams, and decode each other.
  auto a = reg().create("AE-SZ", 2).value();
  auto b = reg().create("AE-SZ", 2).value();
  const Field f = field_for_rank(2);
  const auto sa = a->compress(f, 1e-2);
  const auto sb = b->compress(f, 1e-2);
  EXPECT_EQ(sa, sb);
  auto g = b->decompress(sa);
  ASSERT_TRUE(g.ok()) << g.status().str();
}

TEST(Registry, ZeroLengthStreamIsTypedErrorForEveryCodec) {
  for (const auto& name : reg().names()) {
    auto c = reg().create(name, 3).value();
    const auto result = c->decompress({});
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code, ErrCode::kTruncated) << name;
  }
}

/// Satellite regression: identify(), container parsing, and every codec's
/// decompress must treat zero-length AND single-byte inputs as typed
/// errors — the degenerate prefixes a flaky transport or truncated file
/// hands the service layer.
TEST(Registry, ZeroAndSingleByteInputsAreTypedErrors) {
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> one_byte{0x41};
  EXPECT_EQ(reg().identify(empty).status().code, ErrCode::kTruncated);
  EXPECT_EQ(reg().identify(one_byte).status().code, ErrCode::kTruncated);
  EXPECT_EQ(pipeline::read_container(empty).status().code,
            ErrCode::kTruncated);
  EXPECT_EQ(pipeline::read_container(one_byte).status().code,
            ErrCode::kTruncated);
  EXPECT_EQ(format::peek(empty).status().code, ErrCode::kTruncated);
  EXPECT_EQ(format::peek(one_byte).status().code, ErrCode::kTruncated);
  for (const auto& name : reg().names()) {
    auto c = reg().create(name, 3).value();
    const auto result = c->decompress(one_byte);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code, ErrCode::kTruncated) << name;
  }
}

TEST(Registry, MagicCorruptionIsTypedErrorForEveryCodec) {
  for (const auto& name : reg().names()) {
    const int rank = name == "AE-B" ? 3 : 2;
    auto c = reg().create(name, rank).value();
    if (!c->supports_rank(rank)) continue;
    auto stream = c->compress(field_for_rank(rank), 1e-2);
    stream[0] ^= 0xFF;
    const auto result = c->decompress(stream);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code, ErrCode::kBadMagic) << name;
  }
}

/// Satellite regression test: mutate a valid AE-SZ stream at every blob
/// boundary (and truncate it there) — each case must come back as a typed
/// error or a decoded field, never a crash or OOB read (run under
/// ASan/UBSan in CI via scripts/run_sanitizers.sh).
TEST(Registry, AeszCorruptionAtEveryBlobBoundary) {
  auto c = reg().create("AE-SZ", 2).value();
  const Field f = field_for_rank(2);
  const auto stream = c->compress(f, 1e-2);

  // Walk the stream structure to find every blob boundary: fixed header
  // fields, then five length-prefixed blobs (flags, latents, means, codes,
  // unpredictable).
  std::vector<std::size_t> boundaries;
  {
    ByteReader r(stream);
    auto h = sz::read_header(r, reg().find("AE-SZ")->magic);
    ASSERT_TRUE(h.ok());
    boundaries.push_back(r.pos());  // end of shared header
    (void)r.get<float>();
    (void)r.get<float>();
    (void)r.get<std::uint64_t>();
    (void)r.get_varint();
    (void)r.get_varint();
    boundaries.push_back(r.pos());  // end of AE-SZ fixed fields
    for (int blob = 0; blob < 5; ++blob) {
      (void)r.get_blob();
      boundaries.push_back(r.pos());  // end of each blob
    }
    ASSERT_TRUE(r.eof());
  }

  for (const std::size_t b : boundaries) {
    // Truncation at the boundary must be a typed error.
    std::vector<std::uint8_t> cut(stream.begin(),
                                  stream.begin() + static_cast<long>(b));
    if (cut.size() < stream.size()) {
      const auto result = c->decompress(cut);
      ASSERT_FALSE(result.ok()) << "prefix of " << b << " bytes accepted";
      EXPECT_NE(result.status().code, ErrCode::kOk);
    }
    // Byte flips just before/after the boundary must not crash; a typed
    // error or a (garbage) field are both acceptable outcomes.
    for (const std::size_t pos : {b - 1, b}) {
      if (pos >= stream.size()) continue;
      auto bad = stream;
      bad[pos] ^= 0x5A;
      const auto result = c->decompress(bad);
      if (!result.ok()) {
        EXPECT_NE(result.status().code, ErrCode::kOk);
      }
    }
  }
}

}  // namespace
}  // namespace aesz
