#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/aesz.hpp"
#include "core/latent_codec.hpp"
#include "data/synth.hpp"
#include "lossless/lz.hpp"
#include "metrics/metrics.hpp"
#include "sz/common.hpp"

namespace aesz {
namespace {

// ------------------------------------------------------------- blocks ----

TEST(Blocks, SplitCoversField) {
  const BlockSplit s = make_block_split(Dims(10, 17), 8);
  EXPECT_EQ(s.nb[0], 2u);
  EXPECT_EQ(s.nb[1], 3u);
  EXPECT_EQ(s.total, 6u);
  // Union of valid regions == field, disjoint.
  std::vector<int> covered(10 * 17, 0);
  for (std::size_t bid = 0; bid < s.total; ++bid) {
    std::size_t off[3], ext[3];
    block_region(s, bid, off, ext);
    for (std::size_t a = 0; a < ext[0]; ++a)
      for (std::size_t b = 0; b < ext[1]; ++b)
        ++covered[(off[0] + a) * 17 + off[1] + b];
  }
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST(Blocks, ExtractNormalizesToUnitRange) {
  Field f(Dims(8, 8));
  for (std::size_t i = 0; i < f.size(); ++i)
    f.at(i) = static_cast<float>(i);  // 0..63
  const BlockSplit s = make_block_split(f.dims(), 8);
  Normalizer nrm{0.0f, 63.0f};
  std::vector<float> buf(64);
  extract_block(f, s, 0, nrm, buf.data());
  EXPECT_FLOAT_EQ(buf[0], -1.0f);
  EXPECT_FLOAT_EQ(buf[63], 1.0f);
}

TEST(Blocks, PartialBlockPadsWithEdge) {
  Field f(Dims(4, 10), 2.0f);
  const BlockSplit s = make_block_split(f.dims(), 8);
  Normalizer nrm{0.0f, 4.0f};
  std::vector<float> buf(64);
  extract_block(f, s, 1, nrm, buf.data());  // covers columns 8..9, padded
  for (float v : buf) EXPECT_FLOAT_EQ(v, nrm.norm(2.0f));
}

TEST(Blocks, MeanAndConstLoss) {
  Field f(Dims(8, 8), 5.0f);
  const BlockSplit s = make_block_split(f.dims(), 8);
  EXPECT_FLOAT_EQ(block_mean(f, s, 0), 5.0f);
  EXPECT_EQ(block_l1_const(f, s, 0, 5.0f), 0.0);
  EXPECT_NEAR(block_l1_const(f, s, 0, 4.0f), 64.0, 1e-9);
}

TEST(Blocks, NormalizerRoundtrip) {
  Normalizer nrm{-3.0f, 7.0f};
  for (float v : {-3.0f, 0.0f, 3.3f, 7.0f}) {
    EXPECT_NEAR(nrm.denorm(nrm.norm(v)), v, 1e-5);
  }
  EXPECT_GE(nrm.norm(-3.0f), -1.0f);
  EXPECT_LE(nrm.norm(7.0f), 1.0f);
}

TEST(Blocks, DegenerateRangeNormalizer) {
  Normalizer nrm{2.0f, 2.0f};
  EXPECT_EQ(nrm.norm(2.0f), 0.0f);
}

// Regressions for degenerate inputs surfaced by the chunked pipeline
// (src/pipeline/ hands codecs arbitrarily thin slabs and exactly constant
// chunks).

TEST(Blocks, DegenerateRangeNormalizerRoundTripsConstants) {
  // A zero-range chunk must reconstruct its constant exactly: denorm of a
  // degenerate range collapses to lo, never to the midpoint arithmetic.
  Normalizer nrm{3.25f, 3.25f};
  EXPECT_EQ(nrm.denorm(nrm.norm(3.25f)), 3.25f);
  EXPECT_EQ(nrm.denorm(0.7f), 3.25f);  // any latent drift still decodes lo
  // An inverted range (hi < lo, a caller bug) degrades the same way
  // instead of extrapolating through the negative span.
  Normalizer inv{5.0f, 1.0f};
  EXPECT_EQ(inv.norm(3.0f), 0.0f);
  EXPECT_EQ(inv.denorm(inv.norm(3.0f)), 5.0f);
}

TEST(Blocks, ZeroBlockSizeIsTypedError) {
  // bs == 0 used to divide by zero (SIGFPE) in num_blocks.
  EXPECT_THROW(
      {
        try {
          make_block_split(Dims(10, 17), 0);
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrCode::kInvalidArgument);
          throw;
        }
      },
      Error);
}

TEST(Blocks, ZeroExtentDimsAreTypedError) {
  // A zero extent would underflow the `ext[i] - 1` padding arithmetic in
  // extract_block.
  EXPECT_THROW(make_block_split(Dims(std::size_t{0}), 8), Error);
  EXPECT_THROW(make_block_split(Dims(0, 17), 8), Error);
  EXPECT_THROW(make_block_split(Dims(4, 0, 4), 8), Error);
}

TEST(Blocks, ChunkThinnerThanBlockSize) {
  // A 1-row slab against a 32-wide block: one partial block per column
  // strip, fully covered, edge-padded extraction stays in bounds.
  Field f(Dims(1, 100));
  for (std::size_t i = 0; i < f.size(); ++i)
    f.at(i) = static_cast<float>(i % 7);
  const BlockSplit s = make_block_split(f.dims(), 32);
  EXPECT_EQ(s.nb[0], 1u);
  EXPECT_EQ(s.nb[1], 4u);
  EXPECT_EQ(s.total, 4u);
  Normalizer nrm{0.0f, 6.0f};
  std::vector<float> buf(s.block_elems());
  for (std::size_t bid = 0; bid < s.total; ++bid) {
    extract_block(f, s, bid, nrm, buf.data());
    for (float v : buf) {
      EXPECT_GE(v, -1.0f);
      EXPECT_LE(v, 1.0f);
    }
    // Valid-region losses on the thin block stay finite and consistent.
    EXPECT_GE(block_l1_lorenzo(f, s, bid), 0.0);
    EXPECT_GE(block_l1_const(f, s, bid, block_mean(f, s, bid)), 0.0);
  }
}

// ------------------------------------------------------- latent codec ----

TEST(LatentCodec, RoundtripWithinBound) {
  Rng rng(1);
  std::vector<float> latents(4096);
  for (auto& v : latents) v = static_cast<float>(rng.gaussian() * 2.0);
  const double eb = 0.01;
  const auto blob = latent_codec::encode(latents, eb);
  const auto back = latent_codec::decode(blob);
  ASSERT_EQ(back.size(), latents.size());
  for (std::size_t i = 0; i < latents.size(); ++i)
    EXPECT_LE(std::abs(back[i] - latents[i]), eb);
  EXPECT_LT(blob.size(), latents.size() * sizeof(float));
}

TEST(LatentCodec, QuantizeValueMatchesDecode) {
  // quantize_value must predict exactly what the decoder reconstructs —
  // the property that lets the compressor run the AE on decoder-identical
  // latents.
  Rng rng(2);
  std::vector<float> latents(512);
  for (auto& v : latents) v = static_cast<float>(rng.gaussian());
  const double eb = 0.005;
  const auto back = latent_codec::decode(latent_codec::encode(latents, eb));
  for (std::size_t i = 0; i < latents.size(); ++i)
    EXPECT_EQ(back[i], latent_codec::quantize_value(latents[i], eb));
}

TEST(LatentCodec, TinyBoundFallsBackToVerbatim) {
  std::vector<float> latents{1e6f, -1e6f, 0.5f};
  const auto back =
      latent_codec::decode(latent_codec::encode(latents, 1e-9));
  for (std::size_t i = 0; i < latents.size(); ++i)
    EXPECT_LE(std::abs(back[i] - latents[i]), 1e-9);
}

TEST(LatentCodec, EmptyInput) {
  EXPECT_TRUE(latent_codec::decode(latent_codec::encode({}, 0.1)).empty());
}

TEST(LatentCodec, RatioImprovesWithLooserBound) {
  Rng rng(3);
  std::vector<float> latents(8192);
  for (auto& v : latents) v = static_cast<float>(rng.gaussian());
  const auto tight = latent_codec::encode(latents, 1e-4);
  const auto loose = latent_codec::encode(latents, 1e-1);
  EXPECT_LT(loose.size(), tight.size());
}

// ---------------------------------------------------------------- AESZ ---

/// Shared tiny trained model (training dominates test runtime; reuse it).
class AESZFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AESZ::Options opt;
    opt.ae.rank = 2;
    opt.ae.block = 16;
    opt.ae.latent = 8;
    opt.ae.channels = {4, 8};
    codec_ = new AESZ(opt, 7);
    train_a_ = new Field(synth::cesm_cldhgh(64, 96, /*timestep=*/10));
    train_b_ = new Field(synth::cesm_cldhgh(64, 96, /*timestep=*/11));
    test_ = new Field(synth::cesm_cldhgh(64, 96, /*timestep=*/55));
    TrainOptions topt;
    topt.epochs = 8;
    topt.batch = 16;
    codec_->train({train_a_, train_b_}, topt);
  }
  static void TearDownTestSuite() {
    delete codec_;
    delete train_a_;
    delete train_b_;
    delete test_;
    codec_ = nullptr;
  }
  static AESZ* codec_;
  static Field* train_a_;
  static Field* train_b_;
  static Field* test_;
};

AESZ* AESZFixture::codec_ = nullptr;
Field* AESZFixture::train_a_ = nullptr;
Field* AESZFixture::train_b_ = nullptr;
Field* AESZFixture::test_ = nullptr;

TEST_F(AESZFixture, ErrorBoundHoldsAcrossEbs) {
  for (double eb : {1e-1, 1e-2, 1e-3, 1e-4}) {
    const auto stream = codec_->compress(*test_, eb);
    Field g = codec_->decompress(stream).value();
    ASSERT_EQ(g.size(), test_->size());
    EXPECT_LE(metrics::max_abs_err(test_->values(), g.values()),
              eb * test_->value_range() * (1 + 1e-9))
        << "eb " << eb;
  }
}

TEST_F(AESZFixture, CompressesUnseenTimestep) {
  const auto stream = codec_->compress(*test_, 1e-2);
  EXPECT_GT(metrics::compression_ratio(test_->size(), stream.size()), 4.0);
}

TEST_F(AESZFixture, StatsAreConsistent) {
  (void)codec_->compress(*test_, 1e-2);
  const auto& st = codec_->last_stats();
  EXPECT_EQ(st.blocks_total,
            st.blocks_ae + st.blocks_lorenzo + st.blocks_mean);
  EXPECT_GT(st.blocks_total, 0u);
  EXPECT_GE(st.ae_fraction(), 0.0);
  EXPECT_LE(st.ae_fraction(), 1.0);
}

TEST_F(AESZFixture, PolicyAblationBounds) {
  for (AESZ::Policy p :
       {AESZ::Policy::kAEOnly, AESZ::Policy::kLorenzoOnly}) {
    AESZ::Options opt = codec_->options();
    opt.policy = p;
    AESZ c(opt, 7);
    // Share weights with the trained model via serialization.
    const std::string path = "/tmp/aesz_test_model.bin";
    codec_->save_model(path);
    c.load_model(path);
    const auto stream = c.compress(*test_, 1e-2);
    Field g = c.decompress(stream).value();
    EXPECT_LE(metrics::max_abs_err(test_->values(), g.values()),
              1e-2 * test_->value_range() * (1 + 1e-9));
    if (p == AESZ::Policy::kAEOnly)
      EXPECT_EQ(c.last_stats().blocks_ae, c.last_stats().blocks_total);
    else
      EXPECT_EQ(c.last_stats().blocks_ae, 0u);
    std::remove(path.c_str());
  }
}

TEST_F(AESZFixture, ModelSaveLoadPreservesStreams) {
  const std::string path = "/tmp/aesz_model_roundtrip.bin";
  codec_->save_model(path);
  AESZ other(codec_->options(), 99);  // different random init
  other.load_model(path);
  const auto stream = codec_->compress(*test_, 1e-2);
  Field g = other.decompress(stream).value();  // decodes with loaded weights
  EXPECT_LE(metrics::max_abs_err(test_->values(), g.values()),
            1e-2 * test_->value_range() * (1 + 1e-9));
  std::remove(path.c_str());
}

TEST_F(AESZFixture, FingerprintMismatchIsTypedError) {
  const auto stream = codec_->compress(*test_, 1e-2);
  AESZ fresh(codec_->options(), 1234);  // untrained weights
  auto result = fresh.decompress(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code, ErrCode::kModelMismatch);
}

/// Compresses a 20x20 field with an untrained AE-SZ restricted to Lorenzo
/// and mean blocks (its constant 8x8 patch makes block 0 a mean block),
/// reseals the stream with the lz-compressed blob `skip` blobs after the
/// fixed header fields (0: block flags, 2: means; 1, the latents, is not
/// lz) passed through `edit`, and returns the decode's error code (kOk if
/// it decodes).
template <class Edit>
ErrCode decode_with_edited_blob(int skip, Edit edit) {
  AESZ::Options opt;
  opt.ae.block = 8;
  opt.ae.latent = 4;
  opt.ae.channels = {4};
  opt.policy = AESZ::Policy::kLorenzoOnly;
  AESZ c(opt, 11);
  Field f = synth::value_noise_2d(20, 20, 3, 4.0, 325);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) f.at2(i, j) = 0.25f;
  const auto stream = c.compress(f, ErrorBound::Abs(1e-3));
  EXPECT_GT(c.last_stats().blocks_mean, 0u);
  EXPECT_TRUE(c.decompress(stream).ok());
  ByteReader r(stream);
  EXPECT_TRUE(sz::read_header(r, AESZ::kStreamMagic).ok());
  r.get<float>();
  r.get<float>();
  r.get<std::uint64_t>();
  r.get_varint();
  r.get_varint();
  for (int i = 0; i < skip; ++i) r.get_blob();
  const std::size_t at = r.pos();
  auto bytes = lz::decompress(r.get_blob());
  edit(bytes);
  ByteWriter w;
  w.put_bytes(std::span(stream).first(at));
  w.put_blob(lz::compress(bytes));
  w.put_bytes(r.rest());
  auto result = c.decompress(sz::seal_stream(w.take()));
  return result.ok() ? ErrCode::kOk : result.status().code;
}

TEST(AESZ, ExtraMeanIsCorruptStream) {
  const auto add_mean = [](std::vector<std::uint8_t>& bytes) {
    ByteReader mr(bytes);
    auto means = mr.get_array<float>();
    means.push_back(0.5f);
    ByteWriter mw;
    mw.put_array<float>(means);
    bytes = mw.bytes();
  };
  EXPECT_EQ(decode_with_edited_blob(2, add_mean), ErrCode::kCorruptStream);
}

TEST(AESZ, ExtraFlagByteIsCorruptStream) {
  const auto add_byte = [](std::vector<std::uint8_t>& packed) {
    packed.push_back(0);
  };
  EXPECT_EQ(decode_with_edited_blob(0, add_byte), ErrCode::kCorruptStream);
}

TEST(AESZ, FlagValueThreeIsCorruptStream) {
  // Block 0 is the mean block; 2 bits per block, so the last block's flag
  // (a Lorenzo block, 0) sits in the top bits of the last byte. 3 is not a
  // BlockFlag.
  EXPECT_EQ(decode_with_edited_blob(0, [](std::vector<std::uint8_t>& packed) {
              const std::size_t last = 3 * 3 - 1;  // 20x20 in 8x8 blocks
              ASSERT_EQ((packed[last >> 2] >> ((last & 3) * 2)) & 3, 0);
              packed[last >> 2] |=
                  static_cast<std::uint8_t>(3u << ((last & 3) * 2));
            }),
            ErrCode::kCorruptStream);
}

TEST_F(AESZFixture, RejectsRankMismatch) {
  Field f3(Dims(8, 8, 8), 1.0f);
  EXPECT_THROW((void)codec_->compress(f3, 1e-2), Error);
}

TEST_F(AESZFixture, RejectsZeroBound) {
  EXPECT_THROW((void)codec_->compress(*test_, 0.0), Error);
}

TEST_F(AESZFixture, RateDistortionMonotone) {
  double prev_psnr = -1e9;
  std::size_t prev_size = 0;
  for (double eb : {1e-1, 1e-2, 1e-3}) {
    const auto stream = codec_->compress(*test_, eb);
    Field g = codec_->decompress(stream).value();
    const double p = metrics::psnr(test_->values(), g.values());
    EXPECT_GT(p, prev_psnr);
    EXPECT_GE(stream.size(), prev_size);
    prev_psnr = p;
    prev_size = stream.size();
  }
}

TEST_F(AESZFixture, EvalBatchesCoverAllBlocks) {
  const nn::AEConfig& cfg = codec_->trainer().model().config();
  const auto batches = make_eval_batches(*test_, cfg, 7);  // odd batch size
  const BlockSplit s = make_block_split(test_->dims(), cfg.block);
  std::size_t n = 0;
  for (const auto& b : batches) {
    EXPECT_EQ(b.dim(1), 1u);
    EXPECT_EQ(b.dim(2), cfg.block);
    n += b.dim(0);
  }
  EXPECT_EQ(n, s.total);
}

TEST_F(AESZFixture, PredictionPsnrIsFiniteAndSane) {
  const double p = prediction_psnr(codec_->trainer(), *test_);
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(p, 0.0);    // better than predicting garbage
  EXPECT_LT(p, 200.0);  // and not spuriously lossless
}

TEST_F(AESZFixture, TrainingReportIsConsistent) {
  // Re-train a tiny fresh model and check the report plumbing.
  AESZ fresh(codec_->options(), 5);
  TrainOptions topt;
  topt.epochs = 2;
  topt.batch = 16;
  topt.max_blocks = 64;
  const auto rep = fresh.train({train_a_}, topt);
  EXPECT_EQ(rep.epoch_loss.size(), 2u);
  EXPECT_LE(rep.samples, 64u);
  EXPECT_GT(rep.seconds, 0.0);
  for (double l : rep.epoch_loss) EXPECT_TRUE(std::isfinite(l));
}

TEST_F(AESZFixture, PartialBlocksField) {
  // 70x90 is not a multiple of 16: exercises padded blocks end to end.
  Field f = synth::cesm_cldhgh(70, 90, 60);
  const auto stream = codec_->compress(f, 1e-2);
  Field g = codec_->decompress(stream).value();
  EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
            1e-2 * f.value_range() * (1 + 1e-9));
}

}  // namespace
}  // namespace aesz
