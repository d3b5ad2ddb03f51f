#pragma once

#include <algorithm>
#include <cstddef>

namespace aesz::nn {

namespace detail {
/// Valid output range [lo, hi) for "o*s - p + k in [0, n)" — the window
/// math shared by the direct convolution loops (conv.cpp) and the
/// im2col/col2im kernels (gemm.cpp), so forward and backward can never
/// drift apart.
inline void out_range(std::ptrdiff_t o_extent, std::ptrdiff_t n,
                      std::ptrdiff_t s, std::ptrdiff_t p, std::ptrdiff_t k,
                      std::ptrdiff_t& lo, std::ptrdiff_t& hi) {
  const std::ptrdiff_t a = p - k;  // o*s >= a
  lo = a > 0 ? (a + s - 1) / s : 0;
  const std::ptrdiff_t b = n - 1 + p - k;  // o*s <= b
  hi = b < 0 ? 0 : std::min(o_extent, b / s + 1);
}
}  // namespace detail

/// Register-tiled, cache-blocked single-precision GEMM, row-major:
///
///   C (m x n) = op(A) (m x k) * op(B) (k x n) + beta * C
///
/// op(X) = X or X^T per the trans flags; lda/ldb are the leading dimensions
/// of the *stored* matrices (so for trans_a the stored A is k x m with
/// leading dimension lda). beta = 0 overwrites C without reading it.
///
/// Panels of A and B are packed into contiguous micro-strips (BLIS-style
/// MC/KC/NC blocking) and consumed by an MR x NR register microkernel, so
/// the inner loop is pure FMA over L1-resident data regardless of the
/// transpose flags. Single-threaded by design: the parallel pipeline
/// (src/pipeline/) already owns inter-core parallelism.
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, const float* a, std::size_t lda, const float* b,
           std::size_t ldb, float beta, float* c, std::size_t ldc);

/// Rank-2 convolution forward via im2col + sgemm, n samples in NCHW layout:
///   x    (n, in_c, h, w)
///   wgt  (out_c, in_c, kk, kk)
///   bias (out_c) or nullptr
///   y    (n, out_c, oh, ow), overwritten; oh/ow must equal
///        (h + 2*pad - kk)/stride + 1.
/// One im2col matrix and one SGEMM per sample *group* instead of per
/// sample, so the packed weight panels are amortized across the group —
/// the win that makes cross-request inference batching pay off.
///
/// Samples are grouped so the column matrix stays cache-friendly; the
/// group size is a pure function of the layer shapes (never of n or the
/// thread count), and every output element accumulates in exactly the
/// per-sample order — results are bitwise identical to n calls with
/// n = 1, which is what lets the server coalesce requests without
/// changing a single output byte.
void conv2d_forward_batched(const float* x, std::size_t n, std::size_t in_c,
                            std::size_t h, std::size_t w, const float* wgt,
                            std::size_t out_c, std::size_t kk,
                            std::size_t stride, std::size_t pad,
                            const float* bias, float* y, std::size_t oh,
                            std::size_t ow);

/// Rank-2 transposed-convolution forward via sgemm + col2im scatter:
///   x    (n, in_c, h, w)
///   wgt  (in_c, out_c, kk, kk)  — transposed-conv weight layout
///   y    (n, out_c, oh, ow), overwritten; oh = (h-1)*stride + kk + out_pad
///        - 2*pad (computed by the caller).
/// Same grouping/identity contract as conv2d_forward_batched.
void convt2d_forward_batched(const float* x, std::size_t n, std::size_t in_c,
                             std::size_t h, std::size_t w, const float* wgt,
                             std::size_t out_c, std::size_t kk,
                             std::size_t stride, std::size_t pad,
                             const float* bias, float* y, std::size_t oh,
                             std::size_t ow);

}  // namespace aesz::nn
