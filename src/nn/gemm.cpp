#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/cpu.hpp"

namespace aesz::nn {
namespace {

// Microkernel footprint: MR x NR accumulators live in registers for the
// whole KC-depth loop (6 x 16 floats = 12 YMM registers in the AVX2+FMA
// variant — the classic 6x16 tile). Block sizes keep the packed A block
// (MC x KC, 96 KiB) in L2 and one B panel strip (KC x NR, 16 KiB) hot in
// L1 across the jr sweep.
constexpr std::size_t MR = 6;
constexpr std::size_t NR = 16;
constexpr std::size_t MC = 96;
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 512;

/// Pack an mc x kc block of op(A) into MR-row strips: strip s holds
/// kc consecutive MR-vectors a[s*MR..s*MR+MR-1][kk], zero-padded past mc.
void pack_a(bool trans, const float* a, std::size_t lda, std::size_t row0,
            std::size_t col0, std::size_t mc, std::size_t kc, float* dst) {
  for (std::size_t s = 0; s < mc; s += MR) {
    const std::size_t rows = std::min(MR, mc - s);
    for (std::size_t kk = 0; kk < kc; ++kk) {
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = row0 + s + r, j = col0 + kk;
        *dst++ = trans ? a[j * lda + i] : a[i * lda + j];
      }
      for (std::size_t r = rows; r < MR; ++r) *dst++ = 0.0f;
    }
  }
}

/// Pack a kc x nc panel of op(B) into NR-column strips: strip t holds
/// kc consecutive NR-vectors b[kk][t*NR..t*NR+NR-1], zero-padded past nc.
void pack_b(bool trans, const float* b, std::size_t ldb, std::size_t row0,
            std::size_t col0, std::size_t kc, std::size_t nc, float* dst) {
  for (std::size_t t = 0; t < nc; t += NR) {
    const std::size_t cols = std::min(NR, nc - t);
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const std::size_t i = row0 + kk;
      if (!trans && cols == NR) {
        std::memcpy(dst, b + i * ldb + col0 + t, NR * sizeof(float));
        dst += NR;
        continue;
      }
      for (std::size_t cc = 0; cc < cols; ++cc) {
        const std::size_t j = col0 + t + cc;
        *dst++ = trans ? b[j * ldb + i] : b[i * ldb + j];
      }
      for (std::size_t cc = cols; cc < NR; ++cc) *dst++ = 0.0f;
    }
  }
}

// ---------------------------------------------------------------------
// MR x NR register-tile microkernels: out = Ap-strip * Bp-strip over kc.
// The accumulators are explicit vector variables (GCC/Clang vector
// extensions), which is what actually keeps the 6x16 tile in registers —
// an indexed local array defeats the autovectorizer's registerization and
// runs ~40x slower. On x86-64 an AVX2+FMA variant is selected once at
// runtime via cpuid (12 YMM accumulators); the always-available SSE2
// variant sweeps the tile in two 8-column halves (12 XMM accumulators
// each) so it also stays register-resident. Other targets get the plain
// scalar loop nest.
// ---------------------------------------------------------------------

[[maybe_unused]] void micro_kernel_scalar(std::size_t kc, const float* ap,
                                          const float* bp, float* out) {
  float acc[MR * NR] = {};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* av = ap + kk * MR;
    const float* bv = bp + kk * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const float arv = av[r];
      for (std::size_t cc = 0; cc < NR; ++cc)
        acc[r * NR + cc] += arv * bv[cc];
    }
  }
  std::memcpy(out, acc, sizeof(acc));
}

#ifdef AESZ_X86_DISPATCH

typedef float v8sf __attribute__((vector_size(32)));
typedef float v4sf __attribute__((vector_size(16)));

__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kc, const float* ap, const float* bp, float* out) {
  v8sf acc[MR][2] = {};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* av = ap + kk * MR;
    const float* bv = bp + kk * NR;
    v8sf b0, b1;  // memcpy = unaligned vector load
    std::memcpy(&b0, bv, sizeof(b0));
    std::memcpy(&b1, bv + 8, sizeof(b1));
    for (std::size_t r = 0; r < MR; ++r) {
      const float s = av[r];
      const v8sf ar = {s, s, s, s, s, s, s, s};
      acc[r][0] += ar * b0;
      acc[r][1] += ar * b1;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    std::memcpy(out + r * NR, &acc[r][0], sizeof(v8sf));
    std::memcpy(out + r * NR + 8, &acc[r][1], sizeof(v8sf));
  }
}

void micro_kernel_sse(std::size_t kc, const float* ap, const float* bp,
                      float* out) {
  for (std::size_t half = 0; half < 2; ++half) {
    const float* bph = bp + half * 8;
    v4sf acc[MR][2] = {};
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float* av = ap + kk * MR;
      const float* bv = bph + kk * NR;
      v4sf b0, b1;
      std::memcpy(&b0, bv, sizeof(b0));
      std::memcpy(&b1, bv + 4, sizeof(b1));
      for (std::size_t r = 0; r < MR; ++r) {
        const float s = av[r];
        const v4sf ar = {s, s, s, s};
        acc[r][0] += ar * b0;
        acc[r][1] += ar * b1;
      }
    }
    for (std::size_t r = 0; r < MR; ++r) {
      std::memcpy(out + r * NR + half * 8, &acc[r][0], sizeof(v4sf));
      std::memcpy(out + r * NR + half * 8 + 4, &acc[r][1], sizeof(v4sf));
    }
  }
}
#endif  // x86-64 GNU/Clang

using MicroFn = void (*)(std::size_t, const float*, const float*, float*);

MicroFn pick_micro_kernel() {
#ifdef AESZ_X86_DISPATCH
  if (util::cpu_has_avx2_fma()) return micro_kernel_avx2;
  return micro_kernel_sse;
#else
  return micro_kernel_scalar;
#endif
}

const MicroFn g_micro_kernel = pick_micro_kernel();

thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;
thread_local std::vector<float> tl_col;

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, const float* a, std::size_t lda, const float* b,
           std::size_t ldb, float beta, float* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        c[i * ldc + j] = beta == 0.0f ? 0.0f : beta * c[i * ldc + j];
    return;
  }

  tl_pack_a.resize(((MC + MR - 1) / MR) * MR * KC);
  tl_pack_b.resize(((NC + NR - 1) / NR) * NR * KC);
  float* ap = tl_pack_a.data();
  float* bp = tl_pack_b.data();

  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      // First depth block applies the caller's beta; later blocks add.
      const float eb = pc == 0 ? beta : 1.0f;
      pack_b(trans_b, b, ldb, pc, jc, kc, nc, bp);
      for (std::size_t ic = 0; ic < m; ic += MC) {
        const std::size_t mc = std::min(MC, m - ic);
        pack_a(trans_a, a, lda, ic, pc, mc, kc, ap);
        for (std::size_t jr = 0; jr < nc; jr += NR) {
          const std::size_t cols = std::min(NR, nc - jr);
          const float* bs = bp + (jr / NR) * NR * kc;
          for (std::size_t ir = 0; ir < mc; ir += MR) {
            const std::size_t rows = std::min(MR, mc - ir);
            float acc[MR * NR] = {};
            g_micro_kernel(kc, ap + (ir / MR) * MR * kc, bs, acc);
            for (std::size_t r = 0; r < rows; ++r) {
              float* crow = c + (ic + ir + r) * ldc + jc + jr;
              const float* arow = acc + r * NR;
              if (eb == 0.0f) {
                for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] = arow[cc];
              } else if (eb == 1.0f) {
                for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] += arow[cc];
              } else {
                for (std::size_t cc = 0; cc < cols; ++cc)
                  crow[cc] = eb * crow[cc] + arow[cc];
              }
            }
          }
        }
      }
    }
  }
}

namespace {
using idx = std::ptrdiff_t;
using detail::out_range;

/// Scratch for the batched kernels' sample-interleaved matrices (the
/// column matrix lives in tl_col).
thread_local std::vector<float> tl_batch;

/// im2col of ONE sample into a column matrix shared by a sample group:
/// row r of the group matrix has leading dimension `ld` and this sample
/// owns the `ncols`-wide slice starting at column `col_off`. With
/// ld == ncols and col_off == 0 this is exactly the single-sample im2col.
void im2col_2d(const float* x, std::size_t in_c, std::size_t h,
               std::size_t w, std::size_t kk, std::size_t stride,
               std::size_t pad, std::size_t oh, std::size_t ow, float* col,
               std::size_t ld, std::size_t col_off) {
  const std::size_t ncols = oh * ow;
  const idx S = static_cast<idx>(stride), P = static_cast<idx>(pad);
  // Row (ic, kh, kw) is the input tap shifted to each output position;
  // zeros where the tap falls into padding.
  for (std::size_t ic = 0; ic < in_c; ++ic) {
    const float* xplane = x + ic * h * w;
    for (std::size_t khi = 0; khi < kk; ++khi) {
      idx oh_lo, oh_hi;
      out_range(static_cast<idx>(oh), static_cast<idx>(h), S, P,
                static_cast<idx>(khi), oh_lo, oh_hi);
      for (std::size_t kwi = 0; kwi < kk; ++kwi) {
        float* row = col + ((ic * kk + khi) * kk + kwi) * ld + col_off;
        std::memset(row, 0, ncols * sizeof(float));
        idx ow_lo, ow_hi;
        out_range(static_cast<idx>(ow), static_cast<idx>(w), S, P,
                  static_cast<idx>(kwi), ow_lo, ow_hi);
        for (idx o = oh_lo; o < oh_hi; ++o) {
          const idx ih = o * S - P + static_cast<idx>(khi);
          const float* src =
              xplane + ih * static_cast<idx>(w) - P + static_cast<idx>(kwi);
          float* dst = row + o * static_cast<idx>(ow);
          if (S == 1) {
            std::memcpy(dst + ow_lo, src + ow_lo,
                        static_cast<std::size_t>(ow_hi - ow_lo) *
                            sizeof(float));
          } else {
            for (idx oo = ow_lo; oo < ow_hi; ++oo) dst[oo] = src[oo * S];
          }
        }
      }
    }
  }
}

/// col2im scatter of ONE sample out of a group column matrix (leading
/// dimension `ld`, sample slice at `col_off`) into its (out_c, oh, ow)
/// output plane — same index math as the direct transposed-conv scatter.
void col2im_2d(const float* col, std::size_t ld, std::size_t col_off,
               std::size_t out_c, std::size_t h, std::size_t w,
               std::size_t kk, std::size_t stride, std::size_t pad,
               const float* bias, float* y, std::size_t oh, std::size_t ow) {
  const idx S = static_cast<idx>(stride), P = static_cast<idx>(pad);
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    const float bv = bias ? bias[oc] : 0.0f;
    float* yplane = y + oc * oh * ow;
    for (std::size_t i = 0; i < oh * ow; ++i) yplane[i] = bv;
  }
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    float* yplane = y + oc * oh * ow;
    for (std::size_t khi = 0; khi < kk; ++khi) {
      idx ih_lo, ih_hi;  // valid i: i*s + kh - p in [0, oh)
      out_range(static_cast<idx>(h), static_cast<idx>(oh), S, P,
                static_cast<idx>(khi), ih_lo, ih_hi);
      for (std::size_t kwi = 0; kwi < kk; ++kwi) {
        const float* row =
            col + ((oc * kk + khi) * kk + kwi) * ld + col_off;
        idx iw_lo, iw_hi;
        out_range(static_cast<idx>(w), static_cast<idx>(ow), S, P,
                  static_cast<idx>(kwi), iw_lo, iw_hi);
        for (idx ih = ih_lo; ih < ih_hi; ++ih) {
          const idx o = ih * S + static_cast<idx>(khi) - P;
          const float* src = row + ih * static_cast<idx>(w);
          float* dst = yplane + o * static_cast<idx>(ow) - P +
                       static_cast<idx>(kwi);
          for (idx iw = iw_lo; iw < iw_hi; ++iw) dst[iw * S] += src[iw];
        }
      }
    }
  }
}

/// Samples per SGEMM group, from layer shapes only (determinism: never a
/// function of the sample count remainder, thread count, or load). Bounds
/// the interleaved col + scratch matrices to ~8 MiB so grouping buys
/// packed-panel reuse without blowing the cache.
std::size_t conv_group_size(std::size_t per_sample_floats) {
  constexpr std::size_t kBudgetFloats = std::size_t{2} << 20;
  if (per_sample_floats == 0) return 1;
  return std::max<std::size_t>(1, kBudgetFloats / per_sample_floats);
}

}  // namespace

void conv2d_forward_batched(const float* x, std::size_t n, std::size_t in_c,
                            std::size_t h, std::size_t w, const float* wgt,
                            std::size_t out_c, std::size_t kk,
                            std::size_t stride, std::size_t pad,
                            const float* bias, float* y, std::size_t oh,
                            std::size_t ow) {
  if (n == 0) return;
  const std::size_t kdim = in_c * kk * kk;
  const std::size_t ncols = oh * ow;
  const std::size_t group =
      std::min(n, conv_group_size((kdim + out_c) * ncols));
  tl_col.resize(kdim * group * ncols);
  tl_batch.resize(out_c * group * ncols);
  float* col = tl_col.data();
  float* buf = tl_batch.data();

  for (std::size_t g0 = 0; g0 < n; g0 += group) {
    const std::size_t gn = std::min(group, n - g0);
    const std::size_t ld = gn * ncols;
    // Samples side by side along the column dimension: one packed weight
    // panel then serves the whole group. Column position does not change
    // any element's accumulation order, so each sample's result is
    // bitwise what a group of one would produce.
#pragma omp parallel for schedule(static)
    for (idx gi = 0; gi < static_cast<idx>(gn); ++gi) {
      const auto ug = static_cast<std::size_t>(gi);
      im2col_2d(x + (g0 + ug) * in_c * h * w, in_c, h, w, kk, stride, pad,
                oh, ow, col, ld, ug * ncols);
    }
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      const float bv = bias ? bias[oc] : 0.0f;
      float* brow = buf + oc * ld;
      for (std::size_t i = 0; i < ld; ++i) brow[i] = bv;
    }
    sgemm(false, false, out_c, ld, kdim, wgt, kdim, col, ld, 1.0f, buf, ld);
    // De-interleave (out_c x group*ncols) back into per-sample NCHW.
#pragma omp parallel for schedule(static)
    for (idx gi = 0; gi < static_cast<idx>(gn); ++gi) {
      const auto ug = static_cast<std::size_t>(gi);
      for (std::size_t oc = 0; oc < out_c; ++oc)
        std::memcpy(y + ((g0 + ug) * out_c + oc) * ncols,
                    buf + oc * ld + ug * ncols, ncols * sizeof(float));
    }
  }
}

void convt2d_forward_batched(const float* x, std::size_t n, std::size_t in_c,
                             std::size_t h, std::size_t w, const float* wgt,
                             std::size_t out_c, std::size_t kk,
                             std::size_t stride, std::size_t pad,
                             const float* bias, float* y, std::size_t oh,
                             std::size_t ow) {
  if (n == 0) return;
  const std::size_t kdim = out_c * kk * kk;
  const std::size_t ncols = h * w;
  const std::size_t group =
      std::min(n, conv_group_size((kdim + in_c) * ncols));
  tl_col.resize(kdim * group * ncols);
  tl_batch.resize(in_c * group * ncols);
  float* col = tl_col.data();
  float* xbuf = tl_batch.data();

  for (std::size_t g0 = 0; g0 < n; g0 += group) {
    const std::size_t gn = std::min(group, n - g0);
    const std::size_t ld = gn * ncols;
    // Gather NCHW samples into one (in_c x group*ncols) right-hand side so
    // the transposed weight packs once per group.
#pragma omp parallel for schedule(static)
    for (idx gi = 0; gi < static_cast<idx>(gn); ++gi) {
      const auto ug = static_cast<std::size_t>(gi);
      for (std::size_t ic = 0; ic < in_c; ++ic)
        std::memcpy(xbuf + ic * ld + ug * ncols,
                    x + ((g0 + ug) * in_c + ic) * ncols,
                    ncols * sizeof(float));
    }
    sgemm(true, false, kdim, ld, in_c, wgt, kdim, xbuf, ld, 0.0f, col, ld);
#pragma omp parallel for schedule(static)
    for (idx gi = 0; gi < static_cast<idx>(gn); ++gi) {
      const auto ug = static_cast<std::size_t>(gi);
      col2im_2d(col, ld, ug * ncols, out_c, h, w, kk, stride, pad, bias,
                y + (g0 + ug) * out_c * oh * ow, oh, ow);
    }
  }
}

}  // namespace aesz::nn
