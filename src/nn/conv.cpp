#include "nn/conv.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>

#include "nn/gemm.hpp"
#include "util/stage_timer.hpp"

namespace aesz::nn {
namespace {

using idx = std::ptrdiff_t;
using detail::out_range;  // shared window math, defined in nn/gemm.hpp

// Rank-2 forwards run through the im2col + blocked-SGEMM kernels in
// src/nn/gemm.cpp (the inference hot path). Everything else runs on the
// three direct kernels below — gather, scatter and correlate. Each walks
// the layer's table of tap rows (make_geom) with the kernel taps outside
// the spatial loops, so the innermost loop is a contiguous (or stride-s)
// AXPY or dot over one row. The correctness of every path is pinned by
// finite-difference tests and GEMM-vs-naive checks.

float he_std(std::size_t fan_in) {
  return std::sqrt(2.0f / static_cast<float>(fan_in));
}

/// k^rank, the taps of a cubic kernel.
std::size_t kernel_taps(int rank, std::size_t k) {
  AESZ_CHECK_MSG(rank == 2 || rank == 3, "conv rank must be 2 or 3");
  return rank == 2 ? k * k : k * k * k;
}

/// [a, b, k^rank]: the weight shape, a being the dense-side channels.
std::vector<std::size_t> weight_shape(int rank, std::size_t a, std::size_t b,
                                      std::size_t k) {
  std::vector<std::size_t> s{a, b};
  s.insert(s.end(), static_cast<std::size_t>(rank), k);
  return s;
}

/// x's shape with `c` channels and every spatial extent mapped by `size`.
std::vector<std::size_t> out_shape(
    const Tensor& x, std::size_t c,
    const std::function<std::size_t(std::size_t)>& size) {
  std::vector<std::size_t> s{x.dim(0), c};
  for (std::size_t a = 2; a < x.shape().size(); ++a)
    s.push_back(size(x.dim(a)));
  return s;
}

/// One dense row of a tap's window: dense offset d, columns [lo, hi), meets
/// the strided row at offset s, which already includes -P + kw, so dense
/// column o pairs with strided column o*S.
struct Row {
  idx d, s, lo, hi;
};

/// A convolution seen from its two sides. The dense tensor (Conv's output,
/// ConvT's input) is indexed by o, the strided one (Conv's input, ConvT's
/// output) by o*S - P + k, and the weight by [dense channel][strided
/// channel][taps] — Conv's [out, in] and ConvT's [in, out] alike. Every
/// kernel walks the taps (kd, kh, kw) in order and, per tap, its rows
/// (od, oh) in order: tap t owns rows[first[t] .. first[t + 1]).
struct Geom {
  std::size_t n, dc, sc;          // batch, dense channels, strided channels
  std::size_t dense_vol, strided_vol, taps;
  idx stride;
  std::vector<Row> rows;
  std::vector<std::size_t> first;
};

/// Extents are per axis (depth, height, width); a rank-2 tensor is depth 1,
/// with kernel depth 1 and pad 0 on that axis.
Geom make_geom(const Tensor& dense, const Tensor& strided, std::size_t k,
               std::size_t stride, std::size_t pad) {
  const std::size_t rank = dense.shape().size() - 2;
  std::array<idx, 3> de{}, se{}, ke{}, pe{};
  for (std::size_t a = 0; a < 3; ++a) {
    const bool present = a + rank >= 3;
    de[a] = present ? static_cast<idx>(dense.dim(a + rank - 1)) : 1;
    se[a] = present ? static_cast<idx>(strided.dim(a + rank - 1)) : 1;
    ke[a] = present ? static_cast<idx>(k) : 1;
    pe[a] = present ? static_cast<idx>(pad) : 0;
  }
  const idx S = static_cast<idx>(stride);
  Geom g{dense.dim(0),
         dense.dim(1),
         strided.dim(1),
         static_cast<std::size_t>(de[0] * de[1] * de[2]),
         static_cast<std::size_t>(se[0] * se[1] * se[2]),
         static_cast<std::size_t>(ke[0] * ke[1] * ke[2]),
         S,
         {},
         {0}};
  for (idx kd = 0; kd < ke[0]; ++kd) {
    idx d_lo, d_hi;
    out_range(de[0], se[0], S, pe[0], kd, d_lo, d_hi);
    for (idx kh = 0; kh < ke[1]; ++kh) {
      idx h_lo, h_hi;
      out_range(de[1], se[1], S, pe[1], kh, h_lo, h_hi);
      for (idx kw = 0; kw < ke[2]; ++kw) {
        idx w_lo, w_hi;
        out_range(de[2], se[2], S, pe[2], kw, w_lo, w_hi);
        for (idx od = d_lo; od < d_hi; ++od) {
          const idx sd = od * S - pe[0] + kd;
          for (idx oh = h_lo; oh < h_hi; ++oh) {
            const idx sh = oh * S - pe[1] + kh;
            g.rows.push_back({(od * de[1] + oh) * de[2],
                              (sd * se[1] + sh) * se[2] - pe[2] + kw, w_lo,
                              w_hi});
          }
        }
        g.first.push_back(g.rows.size());
      }
    }
  }
  return g;
}

/// dense[o] += w·strided[o*S - P + k]: Conv's forward and ConvT's input
/// gradient. Parallel over (n, dense channel); each dense plane starts at
/// its bias (if given) and adds strided channels, then taps, in order.
void gather(const Geom& g, const float* w, const float* strided,
            const float* bias, float* dense) {
  const idx S = g.stride;
#pragma omp parallel for collapse(2) schedule(static)
  for (idx n = 0; n < static_cast<idx>(g.n); ++n) {
    for (idx c = 0; c < static_cast<idx>(g.dc); ++c) {
      const auto un = static_cast<std::size_t>(n);
      const auto uc = static_cast<std::size_t>(c);
      float* dplane = dense + (un * g.dc + uc) * g.dense_vol;
      if (bias) std::fill_n(dplane, g.dense_vol, bias[uc]);
      for (std::size_t s = 0; s < g.sc; ++s) {
        const float* splane = strided + (un * g.sc + s) * g.strided_vol;
        const float* wt = w + (uc * g.sc + s) * g.taps;
        for (std::size_t t = 0; t < g.taps; ++t) {
          const float wv = wt[t];
          for (std::size_t r = g.first[t]; r < g.first[t + 1]; ++r) {
            const Row& row = g.rows[r];
            float* drow = dplane + row.d;
            const float* srow = splane + row.s;
            for (idx o = row.lo; o < row.hi; ++o) drow[o] += wv * srow[o * S];
          }
        }
      }
    }
  }
}

/// strided[o*S - P + k] += w·dense[o]: Conv's input gradient and ConvT's
/// forward. Parallel over (n, strided channel); each strided plane starts
/// at its bias (if given) and adds dense channels, then taps, in order.
void scatter(const Geom& g, const float* w, const float* dense,
             const float* bias, float* strided) {
  const idx S = g.stride;
#pragma omp parallel for collapse(2) schedule(static)
  for (idx n = 0; n < static_cast<idx>(g.n); ++n) {
    for (idx c = 0; c < static_cast<idx>(g.sc); ++c) {
      const auto un = static_cast<std::size_t>(n);
      const auto uc = static_cast<std::size_t>(c);
      float* splane = strided + (un * g.sc + uc) * g.strided_vol;
      if (bias) std::fill_n(splane, g.strided_vol, bias[uc]);
      for (std::size_t d = 0; d < g.dc; ++d) {
        const float* dplane = dense + (un * g.dc + d) * g.dense_vol;
        const float* wt = w + (d * g.sc + uc) * g.taps;
        for (std::size_t t = 0; t < g.taps; ++t) {
          const float wv = wt[t];
          for (std::size_t r = g.first[t]; r < g.first[t + 1]; ++r) {
            const Row& row = g.rows[r];
            const float* drow = dplane + row.d;
            float* srow = splane + row.s;
            for (idx o = row.lo; o < row.hi; ++o) srow[o * S] += wv * drow[o];
          }
        }
      }
    }
  }
}

/// gw[dense c][strided c][tap] += Σ_o dense[o]·strided[o*S - P + k]: the
/// weight gradient of both layers. Parallel over the dense channel; each
/// weight sums, per sample n, one dot product per strided channel and tap.
void correlate(const Geom& g, const float* dense, const float* strided,
               float* gw) {
  const idx S = g.stride;
#pragma omp parallel for schedule(static)
  for (idx c = 0; c < static_cast<idx>(g.dc); ++c) {
    const auto uc = static_cast<std::size_t>(c);
    for (std::size_t n = 0; n < g.n; ++n) {
      const float* dplane = dense + (n * g.dc + uc) * g.dense_vol;
      for (std::size_t s = 0; s < g.sc; ++s) {
        const float* splane = strided + (n * g.sc + s) * g.strided_vol;
        float* gt = gw + (uc * g.sc + s) * g.taps;
        for (std::size_t t = 0; t < g.taps; ++t) {
          float acc = 0.0f;
          for (std::size_t r = g.first[t]; r < g.first[t + 1]; ++r) {
            const Row& row = g.rows[r];
            const float* drow = dplane + row.d;
            const float* srow = splane + row.s;
            for (idx o = row.lo; o < row.hi; ++o) acc += drow[o] * srow[o * S];
          }
          gt[t] += acc;
        }
      }
    }
  }
}

/// gb[c] += Σ gy[n][c][...], per channel in n-then-position order.
void bias_grad(const Tensor& gy, float* gb) {
  const auto& s = gy.shape();
  const std::size_t C = s[1];
  const std::size_t vol = std::accumulate(s.begin() + 2, s.end(),
                                          std::size_t{1}, std::multiplies<>());
  for (std::size_t n = 0; n < s[0]; ++n)
    for (std::size_t c = 0; c < C; ++c) {
      const float* plane = gy.data() + (n * C + c) * vol;
      for (std::size_t i = 0; i < vol; ++i) gb[c] += plane[i];
    }
}

}  // namespace

// ------------------------------------------------------------------ Conv --

Conv::Conv(int rank, std::size_t in_c, std::size_t out_c, std::size_t k,
           std::size_t stride, std::size_t pad, Rng& rng)
    : rank_(rank), in_c_(in_c), out_c_(out_c), k_(k), stride_(stride),
      pad_(pad),
      w_(Tensor::randn(weight_shape(rank, out_c, in_c, k), rng,
                       he_std(in_c * kernel_taps(rank, k)))),
      b_(Tensor::zeros({out_c})) {}

Tensor Conv::forward(const Tensor& x, bool train) {
  prof::StageScope scope(prof::Stage::kInference);
  AESZ_CHECK(x.shape().size() == static_cast<std::size_t>(rank_) + 2 &&
             x.dim(1) == in_c_);
  Tensor y(out_shape(x, out_c_, [&](std::size_t in) { return out_size(in); }));
  if (rank_ == 2) {
    // Batched im2col + SGEMM: the whole minibatch shares each packed weight
    // panel, and each sample's output is bitwise what a batch of one gives
    // (the server's cross-request batcher depends on that identity).
    conv2d_forward_batched(x.data(), x.dim(0), in_c_, x.dim(2), x.dim(3),
                           w_.value.data(), out_c_, k_, stride_, pad_,
                           b_.value.data(), y.data(), y.dim(2), y.dim(3));
  } else {
    gather(make_geom(y, x, k_, stride_, pad_), w_.value.data(), x.data(),
           b_.value.data(), y.data());
  }
  if (train) x_cache_ = x;
  return y;
}

Tensor Conv::backward(const Tensor& gy) {
  const Tensor& x = x_cache_;
  const Geom g = make_geom(gy, x, k_, stride_, pad_);
  Tensor gx(x.shape());
  correlate(g, gy.data(), x.data(), w_.grad.data());
  bias_grad(gy, b_.grad.data());
  scatter(g, w_.value.data(), gy.data(), nullptr, gx.data());
  return gx;
}

// ----------------------------------------------------------------- ConvT --

ConvT::ConvT(int rank, std::size_t in_c, std::size_t out_c, std::size_t k,
             std::size_t stride, std::size_t pad, std::size_t out_pad,
             Rng& rng)
    : rank_(rank), in_c_(in_c), out_c_(out_c), k_(k), stride_(stride),
      pad_(pad), out_pad_(out_pad),
      w_(Tensor::randn(weight_shape(rank, in_c, out_c, k), rng,
                       he_std(in_c * kernel_taps(rank, k)))),
      b_(Tensor::zeros({out_c})) {}

Tensor ConvT::forward(const Tensor& x, bool train) {
  prof::StageScope scope(prof::Stage::kInference);
  AESZ_CHECK(x.shape().size() == static_cast<std::size_t>(rank_) + 2 &&
             x.dim(1) == in_c_);
  Tensor y(out_shape(x, out_c_, [&](std::size_t in) { return out_size(in); }));
  if (rank_ == 2) {
    convt2d_forward_batched(x.data(), x.dim(0), in_c_, x.dim(2), x.dim(3),
                            w_.value.data(), out_c_, k_, stride_, pad_,
                            b_.value.data(), y.data(), y.dim(2), y.dim(3));
  } else {
    scatter(make_geom(x, y, k_, stride_, pad_), w_.value.data(), x.data(),
            b_.value.data(), y.data());
  }
  if (train) x_cache_ = x;
  return y;
}

Tensor ConvT::backward(const Tensor& gy) {
  const Tensor& x = x_cache_;
  const Geom g = make_geom(x, gy, k_, stride_, pad_);
  Tensor gx(x.shape());
  gather(g, w_.value.data(), gy.data(), nullptr, gx.data());
  correlate(g, x.data(), gy.data(), w_.grad.data());
  bias_grad(gy, b_.grad.data());
  return gx;
}

}  // namespace aesz::nn
