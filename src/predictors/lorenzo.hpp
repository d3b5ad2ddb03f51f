#pragma once

#include <cstddef>

#include "util/dims.hpp"

namespace aesz::lorenzo {

/// First- and second-order Lorenzo predictors (Ibarria et al. 2003), the
/// workhorse predictor of the SZ family. Out-of-range neighbors read as 0,
/// matching SZ semantics. All functions predict from the *reconstructed*
/// buffer so compression and decompression stay bit-identical.

inline float predict1(const float* r, std::size_t i) {
  return i >= 1 ? r[i - 1] : 0.0f;
}

inline float predict2(const float* r, const Dims& d, std::size_t i,
                      std::size_t j) {
  const std::size_t w = d[1];
  const float a = j >= 1 ? r[i * w + (j - 1)] : 0.0f;          // west
  const float b = i >= 1 ? r[(i - 1) * w + j] : 0.0f;          // north
  const float c = (i >= 1 && j >= 1) ? r[(i - 1) * w + (j - 1)] : 0.0f;
  return a + b - c;
}

inline float predict3(const float* r, const Dims& d, std::size_t i,
                      std::size_t j, std::size_t k) {
  const std::size_t n1 = d[1], n2 = d[2];
  auto at = [&](std::size_t a, std::size_t b, std::size_t c) {
    return r[(a * n1 + b) * n2 + c];
  };
  const bool I = i >= 1, J = j >= 1, K = k >= 1;
  const float f100 = I ? at(i - 1, j, k) : 0.0f;
  const float f010 = J ? at(i, j - 1, k) : 0.0f;
  const float f001 = K ? at(i, j, k - 1) : 0.0f;
  const float f110 = (I && J) ? at(i - 1, j - 1, k) : 0.0f;
  const float f101 = (I && K) ? at(i - 1, j, k - 1) : 0.0f;
  const float f011 = (J && K) ? at(i, j - 1, k - 1) : 0.0f;
  const float f111 = (I && J && K) ? at(i - 1, j - 1, k - 1) : 0.0f;
  return f100 + f010 + f001 - f110 - f101 - f011 + f111;
}

/// Second-order Lorenzo (SZauto; Zhao et al., HPDC'20): exact for quadratic
/// fields. 1-D needs three points: 3 f(i-1) - 3 f(i-2) + f(i-3)
/// (annihilates the third difference).
inline float predict1_2nd(const float* r, std::size_t i) {
  if (i >= 3) return 3.0f * r[i - 1] - 3.0f * r[i - 2] + r[i - 3];
  if (i >= 2) return 2.0f * r[i - 1] - r[i - 2];
  return predict1(r, i);
}

/// 2-D second-order stencil (binomial weights over a 3x3 causal corner).
inline float predict2_2nd(const float* r, const Dims& d, std::size_t i,
                          std::size_t j) {
  if (i < 2 || j < 2) return predict2(r, d, i, j);
  const std::size_t w = d[1];
  auto at = [&](std::size_t a, std::size_t b) { return r[a * w + b]; };
  return 2.0f * at(i, j - 1) + 2.0f * at(i - 1, j) - 4.0f * at(i - 1, j - 1) -
         at(i, j - 2) - at(i - 2, j) + 2.0f * at(i - 1, j - 2) +
         2.0f * at(i - 2, j - 1) - at(i - 2, j - 2);
}

/// 3-D second-order stencil: tensor-product of the 1-D weights
/// (+2, -1) => coefficient for offset (a,b,c) is -prod(w_a w_b w_c) with
/// w_0 = -1, w_1 = +2, w_2 = -1 (excluding the origin).
inline float predict3_2nd(const float* r, const Dims& d, std::size_t i,
                          std::size_t j, std::size_t k) {
  if (i < 2 || j < 2 || k < 2) return predict3(r, d, i, j, k);
  const std::size_t n1 = d[1], n2 = d[2];
  auto at = [&](std::size_t a, std::size_t b, std::size_t c) {
    return r[(a * n1 + b) * n2 + c];
  };
  // Annihilation constraint: sum_{a,b,c} w_a w_b w_c f(i-2+a, ...) == 0 for
  // any quadratic field, with w = (1, -2, 1). The point itself has
  // coefficient w_2^3 = 1, so it equals minus the rest of the sum.
  static constexpr float w[3] = {1.0f, -2.0f, 1.0f};
  float pred = 0.0f;
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b)
      for (int c = 0; c < 3; ++c) {
        if (a == 2 && b == 2 && c == 2) continue;  // the point itself
        pred -= w[a] * w[b] * w[c] *
                at(i - 2 + static_cast<std::size_t>(a),
                   j - 2 + static_cast<std::size_t>(b),
                   k - 2 + static_cast<std::size_t>(c));
      }
  return pred;
}

/// The rank-`R` stencil of order `Order` (1 or 2) at field coordinate
/// (i, j, k), unused axes 0; for R == 1, `i` is the linear index. Walks fix
/// R and Order at compile time, so no point pays for either choice.
template <int R, int Order = 1>
inline float predict(const float* r, const Dims& d, std::size_t i,
                     std::size_t j, std::size_t k) {
  if constexpr (R == 1)
    return Order == 1 ? predict1(r, i) : predict1_2nd(r, i);
  else if constexpr (R == 2)
    return Order == 1 ? predict2(r, d, i, j) : predict2_2nd(r, d, i, j);
  else
    return Order == 1 ? predict3(r, d, i, j, k) : predict3_2nd(r, d, i, j, k);
}

}  // namespace aesz::lorenzo
