#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/autoencoder.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "nn/optimizer.hpp"
#include "nn/variants.hpp"
#include "util/bytestream.hpp"

namespace aesz::nn {
namespace {

AEConfig small2d() {
  AEConfig cfg;
  cfg.rank = 2;
  cfg.block = 16;
  cfg.latent = 8;
  cfg.channels = {4, 8};
  return cfg;
}

AEConfig small3d() {
  AEConfig cfg;
  cfg.rank = 3;
  cfg.block = 8;
  cfg.latent = 8;
  cfg.channels = {4, 8};
  return cfg;
}

Tensor random_batch(const AEConfig& cfg, std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> shape{n, 1};
  for (int i = 0; i < cfg.rank; ++i) shape.push_back(cfg.block);
  Tensor t(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = std::tanh(rng.gaussianf());
  return t;
}

/// Smooth, learnable batch: each sample is a random low-frequency wave.
Tensor smooth_batch(const AEConfig& cfg, std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> shape{n, 1};
  for (int i = 0; i < cfg.rank; ++i) shape.push_back(cfg.block);
  Tensor t(shape);
  Rng rng(seed);
  const std::size_t be = cfg.block_elems();
  for (std::size_t s = 0; s < n; ++s) {
    const double fx = 1.0 + rng.uniform() * 2.0;
    const double ph = rng.uniform() * 6.28;
    for (std::size_t i = 0; i < be; ++i) {
      const double u = static_cast<double>(i % cfg.block) / cfg.block;
      const double v = static_cast<double>(i / cfg.block % cfg.block) /
                       cfg.block;
      t[s * be + i] =
          static_cast<float>(0.8 * std::sin(fx * 6.28 * u + ph) *
                             std::cos(fx * 3.14 * v));
    }
  }
  return t;
}

// ---------------------------------------------------------------------
// Blocked-GEMM kernel layer: the register-tiled sgemm and the im2col conv
// forwards must agree with straightforward reference loops to 1e-4.
// ---------------------------------------------------------------------

void naive_gemm(bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
                const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float beta, float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a[kk * lda + i] : a[i * lda + kk];
        const float bv = tb ? b[j * ldb + kk] : b[kk * ldb + j];
        acc += av * bv;
      }
      c[i * ldc + j] = beta * c[i * ldc + j] + acc;
    }
}

TEST(Gemm, MatchesNaiveAcrossShapesAndTransposes) {
  Rng rng(71);
  struct Case {
    std::size_t m, n, k;
    bool ta, tb;
    float beta;
  };
  const std::vector<Case> cases{
      {1, 1, 1, false, false, 0.0f},   {7, 13, 5, false, false, 0.0f},
      {6, 16, 32, false, false, 1.0f}, {97, 33, 130, false, false, 0.0f},
      {33, 97, 65, true, false, 0.0f}, {40, 24, 70, false, true, 0.5f},
      {19, 21, 23, true, true, 1.0f},  {128, 1, 300, false, true, 0.0f},
  };
  for (const auto& tc : cases) {
    const std::size_t lda = tc.ta ? tc.m : tc.k;
    const std::size_t ldb = tc.tb ? tc.k : tc.n;
    std::vector<float> a(tc.m * tc.k), b(tc.k * tc.n);
    std::vector<float> c1(tc.m * tc.n), c2(tc.m * tc.n);
    for (auto& v : a) v = rng.gaussianf();
    for (auto& v : b) v = rng.gaussianf();
    for (std::size_t i = 0; i < c1.size(); ++i) c1[i] = c2[i] = rng.gaussianf();
    sgemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, a.data(), lda, b.data(), ldb,
          tc.beta, c1.data(), tc.n);
    naive_gemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, a.data(), lda, b.data(), ldb,
               tc.beta, c2.data(), tc.n);
    float maxd = 0.0f;
    for (std::size_t i = 0; i < c1.size(); ++i)
      maxd = std::max(maxd, std::abs(c1[i] - c2[i]));
    EXPECT_LT(maxd, 1e-4f) << tc.m << "x" << tc.n << "x" << tc.k << " ta="
                           << tc.ta << " tb=" << tc.tb;
  }
}

TEST(Gemm, Conv2dForwardMatchesNaive) {
  Rng rng(72);
  for (const auto& [stride, pad] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {2, 1},
                                                        {1, 0}, {2, 0}}) {
    const std::size_t in_c = 5, out_c = 7, k = 3, H = 17, W = 13, N = 2;
    Conv layer(2, in_c, out_c, k, stride, pad, rng);
    const std::size_t OH = layer.out_size(H), OW = layer.out_size(W);
    Tensor x({N, in_c, H, W});
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.gaussianf();
    Tensor y = layer.forward(x, false);
    const float* wp = layer.params()[0]->value.data();
    const float* bp = layer.params()[1]->value.data();
    // Direct definition: y[n][oc][o][p] = b + sum x[n][ic][o*s-p+kh][...]*w.
    float maxd = 0.0f;
    for (std::size_t n = 0; n < N; ++n)
      for (std::size_t oc = 0; oc < out_c; ++oc)
        for (std::size_t o = 0; o < OH; ++o)
          for (std::size_t q = 0; q < OW; ++q) {
            float acc = bp[oc];
            for (std::size_t ic = 0; ic < in_c; ++ic)
              for (std::size_t kh = 0; kh < k; ++kh)
                for (std::size_t kw = 0; kw < k; ++kw) {
                  const std::ptrdiff_t ih =
                      static_cast<std::ptrdiff_t>(o * stride + kh) -
                      static_cast<std::ptrdiff_t>(pad);
                  const std::ptrdiff_t iw =
                      static_cast<std::ptrdiff_t>(q * stride + kw) -
                      static_cast<std::ptrdiff_t>(pad);
                  if (ih < 0 || iw < 0 ||
                      ih >= static_cast<std::ptrdiff_t>(H) ||
                      iw >= static_cast<std::ptrdiff_t>(W))
                    continue;
                  acc += x[((n * in_c + ic) * H +
                            static_cast<std::size_t>(ih)) *
                               W +
                           static_cast<std::size_t>(iw)] *
                         wp[((oc * in_c + ic) * k + kh) * k + kw];
                }
            const float got = y[((n * out_c + oc) * OH + o) * OW + q];
            maxd = std::max(maxd, std::abs(got - acc));
          }
    EXPECT_LT(maxd, 1e-4f) << "stride=" << stride << " pad=" << pad;
  }
}

TEST(Gemm, ConvT2dForwardMatchesNaive) {
  Rng rng(73);
  for (const auto& [stride, pad, out_pad] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {2, 1, 1}, {1, 1, 0}, {2, 0, 0}}) {
    const std::size_t in_c = 6, out_c = 4, k = 3, H = 9, W = 11, N = 2;
    ConvT layer(2, in_c, out_c, k, stride, pad, out_pad, rng);
    const std::size_t OH = layer.out_size(H), OW = layer.out_size(W);
    Tensor x({N, in_c, H, W});
    for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.gaussianf();
    Tensor y = layer.forward(x, false);
    const float* wp = layer.params()[0]->value.data();
    const float* bp = layer.params()[1]->value.data();
    // Reference scatter: y[oh][ow] += x[ih][iw] * w, oh = ih*s + kh - p.
    Tensor ref({N, out_c, OH, OW});
    for (std::size_t n = 0; n < N; ++n)
      for (std::size_t oc = 0; oc < out_c; ++oc)
        for (std::size_t o = 0; o < OH * OW; ++o)
          ref[(n * out_c + oc) * OH * OW + o] = bp[oc];
    for (std::size_t n = 0; n < N; ++n)
      for (std::size_t ic = 0; ic < in_c; ++ic)
        for (std::size_t ih = 0; ih < H; ++ih)
          for (std::size_t iw = 0; iw < W; ++iw)
            for (std::size_t oc = 0; oc < out_c; ++oc)
              for (std::size_t kh = 0; kh < k; ++kh)
                for (std::size_t kw = 0; kw < k; ++kw) {
                  const std::ptrdiff_t oh =
                      static_cast<std::ptrdiff_t>(ih * stride + kh) -
                      static_cast<std::ptrdiff_t>(pad);
                  const std::ptrdiff_t ow =
                      static_cast<std::ptrdiff_t>(iw * stride + kw) -
                      static_cast<std::ptrdiff_t>(pad);
                  if (oh < 0 || ow < 0 ||
                      oh >= static_cast<std::ptrdiff_t>(OH) ||
                      ow >= static_cast<std::ptrdiff_t>(OW))
                    continue;
                  ref[((n * out_c + oc) * OH + static_cast<std::size_t>(oh)) *
                          OW +
                      static_cast<std::size_t>(ow)] +=
                      x[((n * in_c + ic) * H + ih) * W + iw] *
                      wp[((ic * out_c + oc) * k + kh) * k + kw];
                }
    float maxd = 0.0f;
    for (std::size_t i = 0; i < y.numel(); ++i)
      maxd = std::max(maxd, std::abs(y[i] - ref[i]));
    EXPECT_LT(maxd, 1e-4f) << "stride=" << stride << " pad=" << pad;
  }
}

TEST(Gemm, LinearForwardMatchesNaive) {
  Rng rng(74);
  const std::size_t in = 130, out = 37, N = 9;
  Linear layer(in, out, rng);
  Tensor x({N, in});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.gaussianf();
  Tensor y = layer.forward(x, false);
  const float* wp = layer.params()[0]->value.data();
  const float* bp = layer.params()[1]->value.data();
  float maxd = 0.0f;
  for (std::size_t n = 0; n < N; ++n)
    for (std::size_t o = 0; o < out; ++o) {
      float acc = bp[o];
      for (std::size_t i = 0; i < in; ++i)
        acc += x[n * in + i] * wp[o * in + i];
      maxd = std::max(maxd, std::abs(y[n * out + o] - acc));
    }
  EXPECT_LT(maxd, 1e-4f);
}

TEST(Tensor, ShapeAndReshape) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24u);
  Tensor r = t.reshaped({6, 4});
  EXPECT_EQ(r.dim(0), 6u);
  EXPECT_THROW((void)t.reshaped({5, 5}), Error);
}

TEST(Autoencoder, EncodeDecodeShapes2d) {
  ConvAutoencoder ae(small2d(), 1);
  Tensor x = random_batch(small2d(), 3, 2);
  Tensor z = ae.encode(x, false);
  EXPECT_EQ(z.dim(0), 3u);
  EXPECT_EQ(z.dim(1), 8u);
  Tensor y = ae.decode(z, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Autoencoder, EncodeDecodeShapes3d) {
  ConvAutoencoder ae(small3d(), 1);
  Tensor x = random_batch(small3d(), 2, 3);
  Tensor z = ae.encode(x, false);
  EXPECT_EQ(z.dim(1), 8u);
  Tensor y = ae.decode(z, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Autoencoder, OutputBoundedByTanh) {
  ConvAutoencoder ae(small2d(), 4);
  Tensor x = random_batch(small2d(), 2, 5);
  Tensor y = ae.decode(ae.encode(x, false), false);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y[i], -1.0f);
    EXPECT_LE(y[i], 1.0f);
  }
}

TEST(Autoencoder, DeterministicAcrossBatching) {
  // Per-sample results must not depend on batch composition — the
  // compressor/decompressor batch blocks differently.
  ConvAutoencoder ae(small2d(), 6);
  Tensor x = random_batch(small2d(), 4, 7);
  Tensor z_all = ae.encode(x, false);
  const std::size_t be = small2d().block_elems();
  for (std::size_t s = 0; s < 4; ++s) {
    Tensor single({1, 1, 16, 16});
    std::copy(x.data() + s * be, x.data() + (s + 1) * be, single.data());
    Tensor z1 = ae.encode(single, false);
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_EQ(z1[i], z_all[s * 8 + i]) << "sample " << s;
  }
}

TEST(Autoencoder, VariationalDoublesLatent) {
  AEConfig cfg = small2d();
  cfg.variational = true;
  ConvAutoencoder ae(cfg, 1);
  Tensor x = random_batch(cfg, 2, 2);
  Tensor z = ae.encode(x, false);
  EXPECT_EQ(z.dim(1), 16u);  // mu ++ logvar
}

TEST(Autoencoder, RejectsBadBlockSize) {
  AEConfig cfg = small2d();
  cfg.block = 2;  // cannot halve twice
  EXPECT_THROW(ConvAutoencoder(cfg, 1), Error);
}

TEST(Autoencoder, SerializationRoundtrip) {
  ConvAutoencoder a(small2d(), 11);
  ByteWriter w;
  a.save(w);
  ConvAutoencoder b(small2d(), 99);  // different init
  const auto bytes = w.take();
  ByteReader r(bytes);
  b.load(r);
  Tensor x = random_batch(small2d(), 2, 12);
  Tensor ya = a.decode(a.encode(x, false), false);
  Tensor yb = b.decode(b.encode(x, false), false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Autoencoder, LoadRejectsWrongArchitecture) {
  ConvAutoencoder a(small2d(), 1);
  ByteWriter w;
  a.save(w);
  ConvAutoencoder b(small3d(), 1);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(b.load(r), Error);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize ||w - target||^2 directly through the optimizer plumbing.
  Param w(Tensor::zeros({8}));
  std::vector<float> target{1, -2, 3, -4, 0.5f, 0, 2, -1};
  Adam opt({&w}, 0.05f);
  for (int it = 0; it < 800; ++it) {
    opt.zero_grad();
    for (std::size_t i = 0; i < 8; ++i)
      w.grad[i] = 2.0f * (w.value[i] - target[i]);
    opt.step();
  }
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(w.value[i], target[i], 1e-2);
}

TEST(Variants, NamesAndFamilies) {
  EXPECT_EQ(variant_name(AEVariant::kSWAE), "SWAE");
  EXPECT_FALSE(variant_is_variational(AEVariant::kSWAE));
  EXPECT_FALSE(variant_is_variational(AEVariant::kWAE));
  EXPECT_TRUE(variant_is_variational(AEVariant::kBetaVAE));
  EXPECT_TRUE(variant_is_variational(AEVariant::kLogCoshVAE));
}

class VariantTrains : public ::testing::TestWithParam<AEVariant> {};

TEST_P(VariantTrains, LossDecreases) {
  AEConfig cfg = small2d();
  VariantHyper hyper;
  hyper.lr = 2e-3f;
  VariantTrainer t(cfg, GetParam(), 42, hyper);
  Tensor batch = smooth_batch(cfg, 16, 9);
  double first = 0, last = 0;
  for (int it = 0; it < 30; ++it) {
    const double loss = t.train_step(batch);
    if (it == 0) first = loss;
    last = loss;
    ASSERT_TRUE(std::isfinite(loss)) << "iteration " << it;
  }
  EXPECT_LT(last, first) << variant_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, VariantTrains,
    ::testing::Values(AEVariant::kAE, AEVariant::kVAE, AEVariant::kBetaVAE,
                      AEVariant::kDIPVAE, AEVariant::kInfoVAE,
                      AEVariant::kLogCoshVAE, AEVariant::kWAE,
                      AEVariant::kSWAE),
    [](const ::testing::TestParamInfo<AEVariant>& info) {
      std::string n = variant_name(info.param);
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(Variants, ReconstructionImprovesWithTraining) {
  AEConfig cfg = small2d();
  VariantTrainer t(cfg, AEVariant::kSWAE, 7);
  Tensor batch = smooth_batch(cfg, 24, 3);
  auto recon_err = [&]() {
    Tensor y = t.reconstruct(batch);
    double e = 0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      const double d = y[i] - batch[i];
      e += d * d;
    }
    return e / static_cast<double>(y.numel());
  };
  const double before = recon_err();
  for (int it = 0; it < 60; ++it) t.train_step(batch);
  EXPECT_LT(recon_err(), before);
}

TEST(Variants, GDNProjectionKeepsConstraints) {
  GDN g(4, false);
  // Force a violating step then project.
  for (Param* p : g.params())
    for (std::size_t i = 0; i < p->value.numel(); ++i)
      p->value[i] = -1.0f;
  g.project();
  auto ps = g.params();
  for (std::size_t i = 0; i < ps[0]->value.numel(); ++i)
    EXPECT_GT(ps[0]->value[i], 0.0f);  // beta >= beta_min
  for (std::size_t i = 0; i < ps[1]->value.numel(); ++i)
    EXPECT_GE(ps[1]->value[i], 0.0f);  // gamma >= 0
}

}  // namespace
}  // namespace aesz::nn
