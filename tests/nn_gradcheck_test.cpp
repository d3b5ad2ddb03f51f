#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "ae_baselines/ae_b.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/gdn.hpp"
#include "nn/losses.hpp"

namespace aesz::nn {
namespace {

/// Finite-difference gradient check of a layer: scalar objective
/// S(x) = sum_i r_i * forward(x)_i with fixed random r. Verifies dS/dx
/// against Layer::backward and dS/dparam against the accumulated grads.
/// float32 central differences carry ~1e-3 noise, hence the loose but
/// still bug-catching tolerance.
void gradcheck_layer(Layer& layer, std::vector<std::size_t> in_shape,
                     std::uint64_t seed, float h = 2e-2f,
                     float tol = 4e-2f) {
  Rng rng(seed);
  Tensor x(in_shape);
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = 0.5f * rng.gaussianf();

  Tensor y0 = layer.forward(x, /*train=*/true);
  Tensor r(y0.shape());
  for (std::size_t i = 0; i < r.numel(); ++i) r[i] = rng.gaussianf();

  for (Param* p : layer.params()) p->grad.zero();
  Tensor gx = layer.backward(r);

  auto objective = [&](const Tensor& xin) {
    Tensor y = layer.forward(xin, /*train=*/false);
    double s = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i)
      s += static_cast<double>(r[i]) * y[i];
    return s;
  };

  // Input gradient at a sample of indices.
  const std::size_t n_checks = std::min<std::size_t>(x.numel(), 12);
  for (std::size_t c = 0; c < n_checks; ++c) {
    const std::size_t i = rng.below(x.numel());
    Tensor xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double num = (objective(xp) - objective(xm)) / (2.0 * h);
    const double ana = gx[i];
    EXPECT_NEAR(ana, num, tol * std::max({1.0, std::abs(num), std::abs(ana)}))
        << "input index " << i;
  }

  // Parameter gradients.
  for (Param* p : layer.params()) {
    const std::size_t n_param_checks = std::min<std::size_t>(p->value.numel(), 10);
    for (std::size_t c = 0; c < n_param_checks; ++c) {
      const std::size_t i = rng.below(p->value.numel());
      const float orig = p->value[i];
      p->value[i] = orig + h;
      const double up = objective(x);
      p->value[i] = orig - h;
      const double dn = objective(x);
      p->value[i] = orig;
      const double num = (up - dn) / (2.0 * h);
      const double ana = p->grad[i];
      EXPECT_NEAR(ana, num,
                  tol * std::max({1.0, std::abs(num), std::abs(ana)}))
          << "param index " << i;
    }
  }
}

/// One gradcheck input for a convolution layer: its geometry, its input
/// shape and the two seeds. Besides the square/cubic k=3, pad=1 inputs,
/// the tables hold non-square (H != W, D != H != W) inputs, k=2 with pad 0
/// and stride 2 over odd extents, so a kernel that mixes up two axis
/// extents or mishandles an uneven window fails.
struct ConvCase {
  std::size_t in_c, out_c, k, stride, pad, out_pad;
  std::vector<std::size_t> shape;
  std::uint64_t layer_seed, data_seed;
};

template <class MakeLayer>
void gradcheck_conv(const std::vector<ConvCase>& cases, MakeLayer make) {
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(::testing::PrintToString(c.shape) + " k=" +
                 std::to_string(c.k) + " stride=" + std::to_string(c.stride) +
                 " pad=" + std::to_string(c.pad));
    Rng rng(c.layer_seed);
    auto l = make(c, rng);
    gradcheck_layer(l, c.shape, c.data_seed);
  }
}

Conv conv2d(const ConvCase& c, Rng& rng) {
  return Conv(2, c.in_c, c.out_c, c.k, c.stride, c.pad, rng);
}
ConvT convt2d(const ConvCase& c, Rng& rng) {
  return ConvT(2, c.in_c, c.out_c, c.k, c.stride, c.pad, c.out_pad, rng);
}
Conv conv3d(const ConvCase& c, Rng& rng) {
  return Conv(3, c.in_c, c.out_c, c.k, c.stride, c.pad, rng);
}
ConvT convt3d(const ConvCase& c, Rng& rng) {
  return ConvT(3, c.in_c, c.out_c, c.k, c.stride, c.pad, c.out_pad, rng);
}

TEST(GradCheck, Conv2dStride1) {
  gradcheck_conv({{2, 3, 3, 1, 1, 0, {2, 2, 6, 6}, 1, 101},
                  {2, 3, 3, 1, 1, 0, {2, 2, 5, 7}, 11, 121},
                  {2, 3, 2, 1, 0, 0, {1, 2, 4, 7}, 12, 122}},
                 conv2d);
}

TEST(GradCheck, Conv2dStride2) {
  gradcheck_conv({{2, 4, 3, 2, 1, 0, {2, 2, 8, 8}, 2, 102},
                  {2, 3, 3, 2, 1, 0, {1, 2, 7, 5}, 21, 123},
                  {2, 3, 2, 2, 0, 0, {1, 2, 5, 9}, 22, 124}},
                 conv2d);
}

TEST(GradCheck, ConvT2dStride1) {
  gradcheck_conv({{3, 2, 3, 1, 1, 0, {2, 3, 5, 5}, 3, 103},
                  {3, 2, 3, 1, 1, 0, {2, 3, 4, 6}, 31, 125},
                  {2, 3, 2, 1, 0, 0, {1, 2, 3, 5}, 32, 126}},
                 convt2d);
}

TEST(GradCheck, ConvT2dStride2Upsamples) {
  Rng rng(4);
  ConvT l(2, 3, 2, 3, 2, 1, 1, rng);
  Tensor x({1, 3, 4, 4});
  Tensor y = l.forward(x, false);
  ASSERT_EQ(y.dim(2), 8u);  // exact doubling
  ASSERT_EQ(y.dim(3), 8u);
  gradcheck_conv({{3, 2, 3, 2, 1, 1, {2, 3, 4, 4}, 4, 104},
                  {3, 2, 3, 2, 1, 1, {1, 3, 3, 5}, 41, 127},
                  {2, 2, 2, 2, 0, 0, {1, 2, 5, 3}, 42, 128}},
                 convt2d);
}

TEST(GradCheck, Conv3dStride1) {
  gradcheck_conv({{1, 2, 3, 1, 1, 0, {2, 1, 4, 4, 4}, 5, 105},
                  {2, 2, 3, 1, 1, 0, {1, 2, 3, 4, 5}, 51, 129},
                  {1, 2, 2, 1, 0, 0, {1, 1, 5, 3, 4}, 52, 130}},
                 conv3d);
}

TEST(GradCheck, Conv3dStride2) {
  gradcheck_conv({{2, 2, 3, 2, 1, 0, {1, 2, 6, 6, 6}, 6, 106},
                  {1, 2, 3, 2, 1, 0, {1, 1, 5, 7, 3}, 61, 131},
                  {1, 2, 2, 2, 0, 0, {1, 1, 3, 5, 7}, 62, 132}},
                 conv3d);
}

TEST(GradCheck, ConvT3dStride2Upsamples) {
  Rng rng(7);
  ConvT l(3, 2, 1, 3, 2, 1, 1, rng);
  Tensor x({1, 2, 3, 3, 3});
  Tensor y = l.forward(x, false);
  ASSERT_EQ(y.dim(2), 6u);
  gradcheck_conv({{2, 1, 3, 2, 1, 1, {1, 2, 3, 3, 3}, 7, 107},
                  {1, 2, 3, 2, 1, 1, {1, 1, 3, 5, 1}, 71, 133},
                  {2, 1, 2, 2, 0, 0, {1, 2, 3, 1, 5}, 72, 134}},
                 convt3d);
}

TEST(GradCheck, ConvT3dStride1) {
  gradcheck_conv({{2, 2, 3, 1, 1, 0, {1, 2, 4, 4, 4}, 8, 108},
                  {2, 2, 3, 1, 1, 0, {1, 2, 3, 4, 5}, 81, 135},
                  {2, 1, 2, 1, 0, 0, {1, 2, 4, 3, 5}, 82, 136}},
                 convt3d);
}

TEST(GradCheck, Linear) {
  Rng rng(9);
  Linear l(10, 7, rng);
  gradcheck_layer(l, {4, 10}, 109);
}

TEST(GradCheck, Tanh) {
  Tanh l;
  gradcheck_layer(l, {3, 17}, 110);
}

TEST(GradCheck, LeakyReLU) {
  LeakyReLU l(0.2f);
  // Shift inputs away from the kink at 0 by using a generous h-aware seed;
  // the loose tolerance also absorbs rare kink crossings.
  gradcheck_layer(l, {3, 17}, 111, /*h=*/1e-2f, /*tol=*/6e-2f);
}

TEST(GradCheck, GDNForwardShape) {
  GDN l(4, /*inverse=*/false);
  Tensor x({2, 4, 3, 3});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = 0.1f * (i % 7);
  Tensor y = l.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(GradCheck, GDN) {
  GDN l(3, /*inverse=*/false);
  gradcheck_layer(l, {2, 3, 4, 4}, 112);
}

TEST(GradCheck, InverseGDN) {
  GDN l(3, /*inverse=*/true);
  gradcheck_layer(l, {2, 3, 4, 4}, 113);
}

TEST(GradCheck, GDN3dInput) {
  GDN l(2, /*inverse=*/false);
  gradcheck_layer(l, {1, 2, 3, 3, 3}, 114);
}

TEST(GradCheck, ResBlock3d) {
  // The hard-ReLU inside the block makes finite differences noisy (kink
  // crossings shift many downstream activations at once); the tolerance is
  // loose enough for that but still catches a mis-wired skip connection,
  // which produces O(1) errors.
  Rng rng(10);
  ResBlock3d l(2, rng);
  gradcheck_layer(l, {1, 2, 4, 4, 4}, 115, /*h=*/5e-3f, /*tol=*/0.15f);
}

// ------------------------------------------------------------- losses ----

/// Numeric check for a loss over its primary input.
void gradcheck_loss(
    const std::function<double(const Tensor&, Tensor&)>& loss_fn,
    std::vector<std::size_t> shape, std::uint64_t seed, float h = 1e-2f,
    float tol = 3e-2f) {
  Rng rng(seed);
  Tensor x(shape);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = rng.gaussianf();
  Tensor g(shape);
  loss_fn(x, g);
  for (std::size_t c = 0; c < std::min<std::size_t>(x.numel(), 15); ++c) {
    const std::size_t i = rng.below(x.numel());
    Tensor xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    Tensor dummy(shape);
    const double num = (loss_fn(xp, dummy) - loss_fn(xm, dummy)) / (2.0 * h);
    EXPECT_NEAR(g[i], num,
                tol * std::max({1.0, std::abs(num),
                                std::abs(static_cast<double>(g[i]))}))
        << "index " << i;
  }
}

TEST(GradCheck, MseLoss) {
  Rng rng(20);
  Tensor target({4, 9});
  for (std::size_t i = 0; i < target.numel(); ++i)
    target[i] = rng.gaussianf();
  gradcheck_loss(
      [&](const Tensor& x, Tensor& g) {
        g.zero();
        return losses::mse(x, target, g);
      },
      {4, 9}, 201);
}

TEST(GradCheck, LogCoshLoss) {
  Rng rng(21);
  Tensor target({4, 9});
  for (std::size_t i = 0; i < target.numel(); ++i)
    target[i] = rng.gaussianf();
  gradcheck_loss(
      [&](const Tensor& x, Tensor& g) {
        g.zero();
        return losses::logcosh(x, target, g);
      },
      {4, 9}, 202);
}

TEST(GradCheck, KlDivergenceOverMu) {
  Tensor logvar({5, 4});
  for (std::size_t i = 0; i < logvar.numel(); ++i)
    logvar[i] = 0.1f * static_cast<float>(i % 3) - 0.1f;
  gradcheck_loss(
      [&](const Tensor& mu, Tensor& gmu) {
        gmu.zero();
        Tensor glv(logvar.shape());
        return losses::kl_divergence(mu, logvar, 0.7, gmu, glv);
      },
      {5, 4}, 203);
}

TEST(GradCheck, KlDivergenceOverLogvar) {
  Tensor mu({5, 4});
  for (std::size_t i = 0; i < mu.numel(); ++i)
    mu[i] = 0.2f * static_cast<float>(i % 5) - 0.4f;
  gradcheck_loss(
      [&](const Tensor& lv, Tensor& glv) {
        glv.zero();
        Tensor gmu(mu.shape());
        return losses::kl_divergence(mu, lv, 0.7, gmu, glv);
      },
      {5, 4}, 204);
}

TEST(GradCheck, MmdLoss) {
  Rng rng(22);
  Tensor prior({6, 3});
  for (std::size_t i = 0; i < prior.numel(); ++i)
    prior[i] = rng.gaussianf();
  gradcheck_loss(
      [&](const Tensor& z, Tensor& gz) {
        gz.zero();
        return losses::mmd_rbf(z, prior, 1.0, gz);
      },
      {6, 3}, 205);
}

TEST(GradCheck, SlicedWassersteinLoss) {
  Rng rng(23);
  Tensor prior({8, 4});
  for (std::size_t i = 0; i < prior.numel(); ++i)
    prior[i] = rng.gaussianf();
  // Fixed projection seed per evaluation so numeric and analytic gradients
  // see the same random directions. Piecewise-smooth in z (sorting), so
  // generic points are differentiable.
  gradcheck_loss(
      [&](const Tensor& z, Tensor& gz) {
        gz.zero();
        Rng proj(777);
        return losses::sliced_wasserstein(z, prior, 16, 1.0, proj, gz);
      },
      {8, 4}, 206, /*h=*/5e-3f, /*tol=*/6e-2f);
}

TEST(GradCheck, DipPenalty) {
  gradcheck_loss(
      [&](const Tensor& mu, Tensor& gmu) {
        gmu.zero();
        return losses::dip_penalty(mu, 0.5, 0.25, gmu);
      },
      {7, 3}, 207);
}

TEST(GradCheck, L1LossSign) {
  // L1 grad is +-1/n away from zero; verify signs rather than magnitudes.
  Tensor x({1, 4}), t({1, 4}), g({1, 4});
  x[0] = 1.0f; t[0] = 0.0f;   // +
  x[1] = -1.0f; t[1] = 0.0f;  // -
  x[2] = 0.5f; t[2] = 0.5f;   // 0
  x[3] = 2.0f; t[3] = 5.0f;   // -
  losses::l1(x, t, g);
  EXPECT_GT(g[0], 0.0f);
  EXPECT_LT(g[1], 0.0f);
  EXPECT_EQ(g[2], 0.0f);
  EXPECT_LT(g[3], 0.0f);
}

}  // namespace
}  // namespace aesz::nn
