#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "predictors/blocks.hpp"
#include "predictors/lorenzo.hpp"
#include "predictors/quantizer.hpp"
#include "util/rng.hpp"

namespace aesz {
namespace {

// ----------------------------------------------------------- Lorenzo -----

TEST(Lorenzo, Exact1DOnConstant) {
  std::vector<float> v(10, 3.0f);
  for (std::size_t i = 1; i < v.size(); ++i)
    EXPECT_FLOAT_EQ(lorenzo::predict1(v.data(), i), 3.0f);
}

TEST(Lorenzo, Exact2DOnLinearField) {
  // First-order Lorenzo reproduces any affine field exactly (away from
  // the zero-padded border).
  const Dims d(8, 9);
  std::vector<float> v(d.total());
  for (std::size_t i = 0; i < d[0]; ++i)
    for (std::size_t j = 0; j < d[1]; ++j)
      v[lin2(d, i, j)] = 2.0f + 0.5f * i - 1.25f * j;
  for (std::size_t i = 1; i < d[0]; ++i)
    for (std::size_t j = 1; j < d[1]; ++j)
      EXPECT_NEAR(lorenzo::predict2(v.data(), d, i, j), v[lin2(d, i, j)],
                  1e-5);
}

TEST(Lorenzo, Exact3DOnLinearField) {
  const Dims d(5, 6, 7);
  std::vector<float> v(d.total());
  for (std::size_t i = 0; i < d[0]; ++i)
    for (std::size_t j = 0; j < d[1]; ++j)
      for (std::size_t k = 0; k < d[2]; ++k)
        v[lin3(d, i, j, k)] = 1.0f + 0.3f * i + 0.7f * j - 0.2f * k;
  for (std::size_t i = 1; i < d[0]; ++i)
    for (std::size_t j = 1; j < d[1]; ++j)
      for (std::size_t k = 1; k < d[2]; ++k)
        EXPECT_NEAR(lorenzo::predict3(v.data(), d, i, j, k),
                    v[lin3(d, i, j, k)], 1e-4);
}

TEST(Lorenzo, BilinearErrorIsTheMixedDifference) {
  // For f = i*j the first-order Lorenzo residual equals the constant (1,1)
  // mixed difference (= 1) everywhere in the interior — a sharp check of
  // the stencil arithmetic.
  const Dims d(6, 6);
  std::vector<float> v(d.total());
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      v[lin2(d, i, j)] = static_cast<float>(i * j);
  for (std::size_t i = 1; i < 6; ++i)
    for (std::size_t j = 1; j < 6; ++j)
      EXPECT_NEAR(v[lin2(d, i, j)] - lorenzo::predict2(v.data(), d, i, j),
                  1.0f, 1e-5);
}

TEST(Lorenzo, SecondOrder1DExactOnQuadratic) {
  std::vector<float> v(12);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0f + 2.0f * i + 0.5f * i * i;
  for (std::size_t i = 3; i < v.size(); ++i)
    EXPECT_NEAR(lorenzo::predict1_2nd(v.data(), i), v[i], 1e-4);
}

TEST(Lorenzo, SecondOrder2DExactOnQuadratic) {
  const Dims d(8, 8);
  std::vector<float> v(d.total());
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      v[lin2(d, i, j)] = 1.0f + 0.5f * i * i - 0.25f * j * j + 0.1f * i * j +
                         2.0f * i - j;
  for (std::size_t i = 2; i < 8; ++i)
    for (std::size_t j = 2; j < 8; ++j)
      EXPECT_NEAR(lorenzo::predict2_2nd(v.data(), d, i, j), v[lin2(d, i, j)],
                  1e-3);
}

TEST(Lorenzo, SecondOrder3DExactOnQuadratic) {
  const Dims d(6, 6, 6);
  std::vector<float> v(d.total());
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      for (std::size_t k = 0; k < 6; ++k)
        v[lin3(d, i, j, k)] = 0.3f * i * i + 0.2f * j * j - 0.1f * k * k +
                              0.05f * i * j + 0.02f * j * k + i - 2.0f * k +
                              4.0f;
  for (std::size_t i = 2; i < 6; ++i)
    for (std::size_t j = 2; j < 6; ++j)
      for (std::size_t k = 2; k < 6; ++k)
        EXPECT_NEAR(lorenzo::predict3_2nd(v.data(), d, i, j, k),
                    v[lin3(d, i, j, k)], 1e-3);
}

TEST(Lorenzo, SecondOrderFallsBackNearBorder) {
  const Dims d(4, 4);
  std::vector<float> v(d.total(), 1.0f);
  // At (1,1) the 2nd-order stencil has no room; must match 1st order.
  EXPECT_EQ(lorenzo::predict2_2nd(v.data(), d, 1, 1),
            lorenzo::predict2(v.data(), d, 1, 1));
}

TEST(Lorenzo, BlockL1LossZeroOnLinear) {
  const std::size_t bh = 6, bw = 6;
  Field f(Dims(bh + 2, bw + 3));  // block 0 of a 6-point split
  for (std::size_t i = 0; i < f.dims()[0]; ++i)
    for (std::size_t j = 0; j < f.dims()[1]; ++j)
      f.at2(i, j) = 0.25f * i - 0.5f * j;
  // Interior is exact; the zero-padded border contributes the loss.
  const double loss = block_l1_lorenzo(f, make_block_split(f.dims(), bh), 0);
  double border = 0.0;
  const float* v = f.data();
  for (std::size_t j = 0; j < bw; ++j)
    border += std::abs(f.at2(0, j) - lorenzo::predict2(v, f.dims(), 0, j));
  for (std::size_t i = 1; i < bh; ++i)
    border += std::abs(f.at2(i, 0) - lorenzo::predict2(v, f.dims(), i, 0));
  EXPECT_NEAR(loss, border, 1e-4);
}

// --------------------------------------------------------- Quantizer -----

TEST(Quantizer, ExactWithinBound) {
  LinearQuantizer q(0.5);
  float recon;
  const auto code = q.quantize(10.3f, 9.0f, recon);
  ASSERT_NE(code, LinearQuantizer::kUnpredictable);
  EXPECT_LE(std::abs(recon - 10.3f), 0.5f);
  EXPECT_EQ(q.recover(9.0f, code), recon);
}

TEST(Quantizer, ZeroResidualIsCenterCode) {
  LinearQuantizer q(0.01);
  float recon;
  const auto code = q.quantize(5.0f, 5.0f, recon);
  EXPECT_EQ(code, 32768);
  EXPECT_EQ(recon, 5.0f);
}

TEST(Quantizer, OutOfRangeIsUnpredictable) {
  LinearQuantizer q(1e-6);
  float recon;
  const auto code = q.quantize(1000.0f, 0.0f, recon);
  EXPECT_EQ(code, LinearQuantizer::kUnpredictable);
  EXPECT_EQ(recon, 1000.0f);  // stored verbatim
}

TEST(Quantizer, FloatPrecisionGuard) {
  // Huge magnitude + tiny bound: float rounding would violate the bound,
  // so the point must go unpredictable rather than silently exceed it.
  LinearQuantizer q(1e-3);
  const float orig = 16777216.0f;  // 2^24: float spacing is 2 here
  const float pred = 16777300.0f;
  float recon;
  const auto code = q.quantize(orig, pred, recon);
  // Either verbatim storage or a reconstruction that truly meets the bound.
  EXPECT_LE(std::abs(static_cast<double>(recon) -
                     static_cast<double>(orig)),
            1e-3);
  if (code == LinearQuantizer::kUnpredictable) {
    EXPECT_EQ(recon, orig);
  }
}

struct QuantCase {
  double eb;
  std::uint64_t seed;
};

class QuantizerProperty : public ::testing::TestWithParam<QuantCase> {};

TEST_P(QuantizerProperty, BoundHoldsOnRandomPairs) {
  const auto [eb, seed] = GetParam();
  LinearQuantizer q(eb);
  Rng rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const float orig = static_cast<float>(rng.gaussian() * 10.0);
    const float pred = orig + static_cast<float>(rng.gaussian() * 5.0 * eb);
    float recon;
    const auto code = q.quantize(orig, pred, recon);
    EXPECT_LE(std::abs(static_cast<double>(recon) - orig), eb);
    if (code != LinearQuantizer::kUnpredictable) {
      EXPECT_EQ(q.recover(pred, code), recon);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantizerProperty,
    ::testing::Values(QuantCase{1e-1, 1}, QuantCase{1e-2, 2},
                      QuantCase{1e-3, 3}, QuantCase{1e-4, 4},
                      QuantCase{1e-6, 5}));

}  // namespace
}  // namespace aesz
