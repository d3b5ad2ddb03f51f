#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "data/synth.hpp"
#include "metrics/metrics.hpp"
#include "predictors/registry.hpp"
#include "sz/sz21.hpp"
#include "sz/szinterp.hpp"
#include "util/rng.hpp"
#include "zfp/zfp_like.hpp"

namespace aesz {
namespace {

/// The robustness contract of every codec under the v2 API: a mangled
/// stream must either come back as a typed error status or decode into
/// *some* field — never throw, crash, hang, or read out of bounds (the
/// latter two would trip ASan/timeouts).
void expect_no_crash(Compressor& c, std::vector<std::uint8_t> stream) {
  const auto result = c.decompress(stream);
  if (!result.ok()) {
    EXPECT_NE(result.status().code, ErrCode::kOk);
  }
}

std::vector<Compressor*> codecs() {
  // Built through the registry — the same instances a runtime caller gets.
  static std::vector<std::unique_ptr<Compressor>> owned = [] {
    std::vector<std::unique_ptr<Compressor>> v;
    for (const char* n : {"SZ2.1", "SZauto", "SZinterp", "ZFP"})
      v.push_back(CodecRegistry::instance().create(n).value());
    return v;
  }();
  std::vector<Compressor*> out;
  for (auto& c : owned) out.push_back(c.get());
  return out;
}

Field test_field() { return synth::cesm_freqsh(48, 64, 50); }

TEST(Robustness, TruncationAtEveryQuarter) {
  Field f = test_field();
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    for (std::size_t frac = 0; frac < 4; ++frac) {
      auto cut = stream;
      cut.resize(stream.size() * frac / 4 + 1);
      expect_no_crash(*c, std::move(cut));
    }
  }
}

TEST(Robustness, SingleByteFlips) {
  Field f = test_field();
  Rng rng(13);
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    for (int trial = 0; trial < 32; ++trial) {
      auto bad = stream;
      const std::size_t pos = rng.below(bad.size());
      bad[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      expect_no_crash(*c, std::move(bad));
    }
  }
}

TEST(Robustness, EmptyAndGarbageStreams) {
  Rng rng(17);
  for (Compressor* c : codecs()) {
    expect_no_crash(*c, {});
    std::vector<std::uint8_t> garbage(256);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    expect_no_crash(*c, std::move(garbage));
  }
}

TEST(Robustness, CrossCodecStreamsRejected) {
  Field f = test_field();
  auto cs = codecs();
  for (Compressor* a : cs) {
    const auto stream = a->compress(f, 1e-3);
    for (Compressor* b : cs) {
      if (a == b) continue;
      const auto result = b->decompress(stream);
      ASSERT_FALSE(result.ok())
          << a->name() << " stream accepted by " << b->name();
      EXPECT_EQ(result.status().code, ErrCode::kBadMagic)
          << a->name() << " -> " << b->name();
    }
  }
}

TEST(Robustness, TruncationIsAlwaysATypedError) {
  // Stronger than no-crash: any strict prefix of a valid stream must be
  // *rejected* (every blob is length-prefixed, so a shortened buffer is
  // always detectable).
  Field f = test_field();
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    for (std::size_t frac = 0; frac < 8; ++frac) {
      auto cut = stream;
      cut.resize(stream.size() * frac / 8);
      const auto result = c->decompress(cut);
      ASSERT_FALSE(result.ok())
          << c->name() << " accepted a " << cut.size() << "-byte prefix";
      EXPECT_NE(result.status().code, ErrCode::kOk);
    }
  }
}

TEST(Robustness, CompressionIsDeterministic) {
  // Byte-identical output for identical input — required for reproducible
  // archives and for the decoder-identity invariant.
  Field f = test_field();
  for (Compressor* c : codecs()) {
    const auto s1 = c->compress(f, 1e-3);
    const auto s2 = c->compress(f, 1e-3);
    EXPECT_EQ(s1, s2) << c->name();
  }
}

TEST(Robustness, ExtremeValuesRoundtrip) {
  // Denormals, huge magnitudes, and exact zeros in one field.
  Field f(Dims(16, 16), 0.0f);
  f.at(0) = 3.0e37f;
  f.at(1) = -3.0e37f;
  f.at(2) = 1.0e-38f;
  f.at(3) = -1.0e-38f;
  f.at(255) = 1.0f;
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    Field g = c->decompress(stream).value();
    EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
              1e-3 * static_cast<double>(f.value_range()) * (1 + 1e-9))
        << c->name();
  }
}

TEST(Robustness, NonFiniteValuesRoundTripBitExactly) {
  // The prediction codecs keep NaN (either sign), +-Inf and denormals
  // through their unpredictable-value stream: each special decodes to its
  // exact bit pattern and every finite value stays within the bound, with
  // no slack.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min()};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (Dims d : {Dims(std::size_t{300}), Dims(24, 32), Dims(8, 10, 12)}) {
    Field f(d);
    Rng rng(31);
    for (float& v : f.values()) v = rng.gaussianf();
    // Sprinkle each special at several places, edges included.
    const std::size_t n = f.size();
    for (std::size_t k = 0; k < 15; ++k)
      f.at(k == 0 ? 0 : k == 1 ? n - 1 : (k * 7919) % n) = specials[k % 5];
    for (const char* name : {"SZ2.1", "SZinterp", "SZauto", "parallel:SZ2.1"}) {
      auto c = CodecRegistry::instance().create(name, d.rank).value();
      for (double eb : {1e-3, 1e-6}) {
        const auto g = c->decompress(c->compress(f, ErrorBound::Abs(eb)));
        ASSERT_TRUE(g.ok()) << name << " " << g.status().str();
        ASSERT_EQ(g->dims(), d);
        for (std::size_t i = 0; i < n; ++i) {
          const float o = f.at(i), r = g->at(i);
          if (!std::isfinite(o)) {
            EXPECT_EQ(bits(o), bits(r))
                << name << " " << d.str() << " eb " << eb << " at " << i;
          } else {
            EXPECT_LE(std::abs(static_cast<double>(o) - r), eb)
                << name << " " << d.str() << " eb " << eb << " at " << i;
          }
        }
      }
    }
  }
}

TEST(Robustness, ZfpRefusesNonFiniteInputTyped) {
  // ZFP has no exception stream, so it must refuse NaN/Inf rather than
  // hand back a "successful" stream whose finite values are off by far
  // more than the bound.
  Field f = synth::cesm_freqsh(64, 64, 3);
  f.at(100) = std::numeric_limits<float>::quiet_NaN();
  f.at(2000) = std::numeric_limits<float>::infinity();
  const auto expect_refused = [&](Compressor& c) {
    try {
      c.compress(f, ErrorBound::Abs(1e-3));
      ADD_FAILURE() << c.name() << " accepted non-finite input";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrCode::kInvalidArgument) << c.name() << ": "
                                                     << e.what();
    }
  };
  for (const char* name : {"ZFP", "parallel:ZFP"})
    expect_refused(*CodecRegistry::instance().create(name, 2).value());
  ZFPLike fixed_rate({/*rate_bits_per_value=*/8.0});
  expect_refused(fixed_rate);
}

TEST(Robustness, SingleElementField) {
  Field f(Dims(std::size_t{1}), 42.0f);
  SZ21 sz;
  SZInterp si;
  ZFPLike zf;
  for (Compressor* c : std::initializer_list<Compressor*>{&sz, &si, &zf}) {
    Field g = c->decompress(c->compress(f, 1e-3)).value();
    ASSERT_EQ(g.size(), 1u);
    EXPECT_NEAR(g.at(0), 42.0f, 1e-3 * 42.0f + 1e-3);
  }
}

TEST(Robustness, HighlyAnisotropicDims) {
  // 1xN and Nx1-ish shapes stress the blocking and stencil border logic.
  for (Dims d : {Dims(2, 300), Dims(300, 2), Dims(2, 3, 200)}) {
    Field f(d);
    Rng rng(19);
    for (float& v : f.values()) v = rng.gaussianf();
    for (Compressor* c : codecs()) {
      const auto stream = c->compress(f, 1e-2);
      Field g = c->decompress(stream).value();
      EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
                1e-2 * f.value_range() * (1 + 1e-9))
          << c->name() << " on " << d.str();
    }
  }
}

TEST(Robustness, NegativeOnlyAndConstantNegativeFields) {
  Field f(Dims(20, 20), -5.0f);
  for (Compressor* c : codecs()) {
    Field g = c->decompress(c->compress(f, 1e-3)).value();
    for (float v : g.values()) EXPECT_NEAR(v, -5.0f, 1e-2);
  }
  Field h(Dims(20, 20));
  Rng rng(23);
  for (float& v : h.values()) v = -10.0f + rng.gaussianf();
  for (Compressor* c : codecs()) {
    Field g = c->decompress(c->compress(h, 1e-3)).value();
    EXPECT_LE(metrics::max_abs_err(h.values(), g.values()),
              1e-3 * h.value_range() * (1 + 1e-9))
        << c->name();
  }
}

TEST(Robustness, RepeatedCompressorReuse) {
  // One codec object across many fields and bounds must not leak state.
  SZInterp c;
  Rng rng(29);
  for (int round = 0; round < 8; ++round) {
    const std::size_t h = 8 + rng.below(40);
    const std::size_t w = 8 + rng.below(40);
    Field f(Dims(h, w));
    for (float& v : f.values()) v = rng.gaussianf();
    const double eb = std::pow(10.0, -1.0 - static_cast<double>(rng.below(4)));
    Field g = c.decompress(c.compress(f, eb)).value();
    EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
              eb * f.value_range() * (1 + 1e-9))
        << "round " << round;
  }
}

}  // namespace
}  // namespace aesz
