// Microbenchmark of the single-thread hot-path kernels rebuilt in the
// perf-overhaul PR: word-at-a-time bit I/O, table-driven Huffman, and the
// blocked-SGEMM conv path. Each kernel is measured against its pre-refactor
// scalar counterpart (per-bit loops, canonical-walk decode, hoisted-tap AXPY
// conv) so the speedups are directly checkable from one binary.
//
// Human-readable report -> stderr; JSON rows -> stdout, so
//   ./bench_kernels > BENCH_kernels.json
// (see scripts/run_bench.sh) captures the machine-readable trajectory.
//
// Environment knobs:
//   AESZ_BENCH_KERNELS_MB     bit I/O payload MiB        (default 32)
//   AESZ_BENCH_KERNELS_SYMS   Huffman symbol count       (default 4M)
//   AESZ_BENCH_KERNELS_GEMM   square GEMM dimension      (default 384)
//   AESZ_BENCH_KERNELS_CONV   conv forward sample count  (default 96)
//   AESZ_BENCH_KERNELS_REPS   timing repetitions, best-of (default 3)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "lossless/huffman.hpp"
#include "nn/gemm.hpp"
#include "util/bitstream.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace aesz;

std::size_t reps() { return bench::env_size_t("AESZ_BENCH_KERNELS_REPS", 3); }

/// Best-of-N wall time of fn() in seconds.
template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps(); ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

// ------------------------------------------------------------- bit I/O --

void bench_bitio(std::vector<bench::JsonObj>& rows) {
  const std::size_t mb = bench::env_size_t("AESZ_BENCH_KERNELS_MB", 32);
  const std::size_t total_bits = mb * (1u << 20) * 8;
  // Deterministic (value, width) items, widths 1..24 like Huffman codes.
  Rng rng(17);
  std::vector<std::pair<std::uint64_t, int>> items;
  std::size_t bits = 0;
  while (bits < total_bits) {
    const int n = 1 + static_cast<int>(rng.below(24));
    items.emplace_back(rng.next_u64() & ((1ULL << n) - 1), n);
    bits += static_cast<std::size_t>(n);
  }
  const double mbytes = static_cast<double>(bits) / 8.0 / 1e6;

  std::vector<std::uint8_t> stream;
  const double t_write_word = best_seconds([&] {
    BitWriter w;
    w.reserve_bits(bits);
    for (auto [v, n] : items) w.put_bits(v, n);
    stream = w.finish();
  });
  const double t_write_bit = best_seconds([&] {
    BitWriter w;
    w.reserve_bits(bits);
    for (auto [v, n] : items)
      for (int i = 0; i < n; ++i) w.put_bit((v >> i) & 1);  // pre-PR style
    auto s = w.finish();
    if (s != stream) std::fprintf(stderr, "!! bitio mismatch\n");
  });
  std::uint64_t sink = 0;
  const double t_read_word = best_seconds([&] {
    BitReader r(stream);
    for (auto [v, n] : items) sink ^= r.get_bits(n);
  });
  const double t_read_bit = best_seconds([&] {
    BitReader r(stream);
    for (auto [v, n] : items)
      for (int i = 0; i < n; ++i)
        sink ^= static_cast<std::uint64_t>(r.get_bit()) << i;
  });
  if (sink == 0xDEADBEEF) std::fprintf(stderr, "(unlikely)\n");

  const auto add = [&](const char* variant, double t, double speedup) {
    bench::JsonObj o;
    o.add("kernel", "bitio").add("variant", variant).add("mb_s", mbytes / t);
    if (speedup > 0) o.add("speedup_vs_scalar", speedup);
    rows.push_back(o);
    std::fprintf(stderr, "  bitio %-10s %8.0f MB/s%s\n", variant, mbytes / t,
                 speedup > 0 ? "" : "  (scalar reference)");
  };
  add("write_bit", t_write_bit, 0);
  add("write_word", t_write_word, t_write_bit / t_write_word);
  add("read_bit", t_read_bit, 0);
  add("read_word", t_read_word, t_read_bit / t_read_word);
}

// ------------------------------------------------------------- Huffman --

void bench_huffman(std::vector<bench::JsonObj>& rows) {
  const std::size_t nsyms =
      bench::env_size_t("AESZ_BENCH_KERNELS_SYMS", 4u << 20);
  // Gaussian quantization bins around the center — the distribution the
  // SZ-family entropy stage actually sees.
  Rng rng(23);
  std::vector<std::uint16_t> syms(nsyms);
  for (auto& s : syms) {
    const double g = rng.gaussian() * 3.0;
    s = static_cast<std::uint16_t>(32768 + std::lround(g));
  }
  const double mbytes = static_cast<double>(nsyms) * 2.0 / 1e6;

  std::vector<std::uint8_t> enc;
  const double t_enc = best_seconds([&] { enc = huffman::encode(syms); });
  std::vector<std::uint16_t> dec;
  const double t_dec = best_seconds([&] { dec = huffman::decode(enc); });
  std::vector<std::uint16_t> dec_ref;
  const double t_ref =
      best_seconds([&] { dec_ref = huffman::decode_reference(enc); });
  if (dec != syms || dec_ref != syms)
    std::fprintf(stderr, "!! huffman roundtrip mismatch\n");

  const auto add = [&](const char* variant, double t, double speedup,
                       bool is_ref) {
    bench::JsonObj o;
    o.add("kernel", "huffman").add("variant", variant).add("mb_s",
                                                           mbytes / t);
    if (speedup > 0) o.add("speedup_vs_scalar", speedup);
    rows.push_back(o);
    std::fprintf(stderr, "  huffman %-13s %8.0f MB/s%s\n", variant,
                 mbytes / t, is_ref ? "  (scalar reference)" : "");
  };
  add("encode", t_enc, 0, false);
  add("decode_scalar", t_ref, 0, true);
  add("decode_table", t_dec, t_ref / t_dec, false);
}

// ---------------------------------------------------------------- GEMM --

void naive_gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
                const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
}

void bench_gemm(std::vector<bench::JsonObj>& rows) {
  const std::size_t dim = bench::env_size_t("AESZ_BENCH_KERNELS_GEMM", 384);
  Rng rng(31);
  std::vector<float> a(dim * dim), b(dim * dim), c1(dim * dim), c2(dim * dim);
  for (auto& v : a) v = rng.gaussianf();
  for (auto& v : b) v = rng.gaussianf();
  const double flops = 2.0 * static_cast<double>(dim) * dim * dim;

  const double t_blk = best_seconds([&] {
    nn::sgemm(false, false, dim, dim, dim, a.data(), dim, b.data(), dim, 0.0f,
              c1.data(), dim);
  });
  const double t_naive = best_seconds(
      [&] { naive_gemm(dim, dim, dim, a.data(), b.data(), c2.data()); });
  float maxd = 0;
  for (std::size_t i = 0; i < c1.size(); ++i)
    maxd = std::max(maxd, std::abs(c1[i] - c2[i]));
  if (maxd > 1e-2f) std::fprintf(stderr, "!! gemm mismatch %g\n", maxd);

  const auto add = [&](const char* variant, double t, double speedup) {
    bench::JsonObj o;
    o.add("kernel", "sgemm").add("variant", variant).add("dim", dim);
    o.add("gflop_s", flops / t / 1e9);
    if (speedup > 0) o.add("speedup_vs_scalar", speedup);
    rows.push_back(o);
    std::fprintf(stderr, "  sgemm %-10s %8.2f GFLOP/s%s\n", variant,
                 flops / t / 1e9, speedup > 0 ? "" : "  (scalar reference)");
  };
  add("naive", t_naive, 0);
  add("blocked", t_blk, t_naive / t_blk);
}

// ---------------------------------------------------------- conv forward --

using cidx = std::ptrdiff_t;
using nn::detail::out_range;  // same window math as the kernel under test

/// The direct convolution loop nest (hoisted-tap AXPY), one sample.
void naive_conv(const float* xp, std::size_t in_c, std::size_t h,
                std::size_t w, const float* wp, std::size_t out_c,
                std::size_t k, std::size_t stride, std::size_t pad,
                const float* bp, float* y, std::size_t oh, std::size_t ow) {
  const cidx S = static_cast<cidx>(stride), P = static_cast<cidx>(pad);
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    float* yplane = y + oc * oh * ow;
    for (std::size_t i = 0; i < oh * ow; ++i) yplane[i] = bp[oc];
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      const float* xplane = xp + ic * h * w;
      for (std::size_t kh = 0; kh < k; ++kh) {
        cidx oh_lo, oh_hi;
        out_range(static_cast<cidx>(oh), static_cast<cidx>(h), S, P,
                       static_cast<cidx>(kh), oh_lo, oh_hi);
        for (std::size_t kw = 0; kw < k; ++kw) {
          const float wv = wp[((oc * in_c + ic) * k + kh) * k + kw];
          cidx ow_lo, ow_hi;
          out_range(static_cast<cidx>(ow), static_cast<cidx>(w), S, P,
                         static_cast<cidx>(kw), ow_lo, ow_hi);
          for (cidx o = oh_lo; o < oh_hi; ++o) {
            const cidx ih = o * S - P + static_cast<cidx>(kh);
            float* yrow = yplane + o * static_cast<cidx>(ow);
            const float* xrow = xplane + ih * static_cast<cidx>(w) - P +
                                static_cast<cidx>(kw);
            for (cidx oo = ow_lo; oo < ow_hi; ++oo)
              yrow[oo] += wv * xrow[oo * S];
          }
        }
      }
    }
  }
}

void bench_conv(std::vector<bench::JsonObj>& rows) {
  // AE encoder-ish shape: 16->32 channels, 3x3, stride 1, pad 1, 32x32.
  const std::size_t in_c = 16, out_c = 32, k = 3, stride = 1, pad = 1;
  const std::size_t h = 32, w = 32, oh = 32, ow = 32;
  const std::size_t samples = bench::env_size_t("AESZ_BENCH_KERNELS_CONV", 96);
  Rng rng(37);
  std::vector<float> x(in_c * h * w), wt(out_c * in_c * k * k), bias(out_c);
  std::vector<float> y1(out_c * oh * ow), y2(out_c * oh * ow);
  for (auto& v : x) v = rng.gaussianf();
  for (auto& v : wt) v = rng.gaussianf();
  for (auto& v : bias) v = rng.gaussianf();
  const double flops = 2.0 * static_cast<double>(samples) * out_c * oh * ow *
                       in_c * k * k;

  const double t_gemm = best_seconds([&] {
    for (std::size_t s = 0; s < samples; ++s)
      nn::conv2d_forward_batched(x.data(), 1, in_c, h, w, wt.data(), out_c,
                                 k, stride, pad, bias.data(), y1.data(), oh,
                                 ow);
  });
  const double t_naive = best_seconds([&] {
    for (std::size_t s = 0; s < samples; ++s)
      naive_conv(x.data(), in_c, h, w, wt.data(), out_c, k, stride, pad,
                 bias.data(), y2.data(), oh, ow);
  });
  float maxd = 0;
  for (std::size_t i = 0; i < y1.size(); ++i)
    maxd = std::max(maxd, std::abs(y1[i] - y2[i]));
  if (maxd > 1e-3f) std::fprintf(stderr, "!! conv mismatch %g\n", maxd);

  const auto add = [&](const char* variant, double t, double speedup) {
    bench::JsonObj o;
    o.add("kernel", "conv2d_forward").add("variant", variant);
    o.add("gflop_s", flops / t / 1e9);
    if (speedup > 0) o.add("speedup_vs_scalar", speedup);
    rows.push_back(o);
    std::fprintf(stderr, "  conv2d %-10s %8.2f GFLOP/s%s\n", variant,
                 flops / t / 1e9, speedup > 0 ? "" : "  (scalar reference)");
  };
  add("direct", t_naive, 0);
  add("im2col_gemm", t_gemm, t_naive / t_gemm);
}

}  // namespace

int main() {
  std::fprintf(stderr,
               "bench_kernels: single-thread hot-path kernels vs their "
               "pre-refactor scalar counterparts (best of %zu runs)\n",
               reps());
  std::vector<bench::JsonObj> rows;
  rows.push_back(bench::meta_obj());
  bench_bitio(rows);
  bench_huffman(rows);
  bench_gemm(rows);
  bench_conv(rows);
  std::printf("%s\n", bench::json_array(rows).c_str());
  return 0;
}
