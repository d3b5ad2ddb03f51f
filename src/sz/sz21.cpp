#include "sz/sz21.hpp"

#include <array>
#include <cmath>

#include "lossless/lz.hpp"
#include "predictors/lorenzo.hpp"
#include "predictors/quantizer.hpp"
#include "sz/common.hpp"
#include "util/stage_timer.hpp"

namespace aesz {
namespace {

constexpr std::uint32_t kMagic = SZ21::kStreamMagic;

/// Least-squares hyperplane fit f ≈ c[0] + sum_d c[1+d] * x_d over a
/// rectangular sub-block. On a full grid the coordinates are uncorrelated,
/// so each slope is an independent 1-D regression against the centered
/// coordinate.
struct PlaneFit {
  std::array<double, 4> c{0, 0, 0, 0};  // intercept + up to 3 slopes
};

PlaneFit fit_plane(const float* f, const Dims& fd, int rank,
                   const std::size_t* off, const std::size_t* ext) {
  PlaneFit fit;
  double n = 0.0, mean = 0.0;
  std::array<double, 3> cmean{0, 0, 0};
  // First pass: means.
  for (std::size_t a = 0; a < ext[0]; ++a) {
    for (std::size_t b = 0; b < (rank >= 2 ? ext[1] : 1); ++b) {
      for (std::size_t c = 0; c < (rank >= 3 ? ext[2] : 1); ++c) {
        const std::size_t idx =
            rank == 1 ? off[0] + a
            : rank == 2
                ? lin2(fd, off[0] + a, off[1] + b)
                : lin3(fd, off[0] + a, off[1] + b, off[2] + c);
        mean += f[idx];
        cmean[0] += static_cast<double>(a);
        cmean[1] += static_cast<double>(b);
        cmean[2] += static_cast<double>(c);
        n += 1.0;
      }
    }
  }
  mean /= n;
  for (auto& v : cmean) v /= n;
  // Second pass: slopes.
  std::array<double, 3> num{0, 0, 0}, den{0, 0, 0};
  for (std::size_t a = 0; a < ext[0]; ++a) {
    for (std::size_t b = 0; b < (rank >= 2 ? ext[1] : 1); ++b) {
      for (std::size_t c = 0; c < (rank >= 3 ? ext[2] : 1); ++c) {
        const std::size_t idx =
            rank == 1 ? off[0] + a
            : rank == 2
                ? lin2(fd, off[0] + a, off[1] + b)
                : lin3(fd, off[0] + a, off[1] + b, off[2] + c);
        const double df = f[idx] - mean;
        const double dc[3] = {static_cast<double>(a) - cmean[0],
                              static_cast<double>(b) - cmean[1],
                              static_cast<double>(c) - cmean[2]};
        for (int d = 0; d < rank; ++d) {
          num[static_cast<std::size_t>(d)] += dc[d] * df;
          den[static_cast<std::size_t>(d)] += dc[d] * dc[d];
        }
      }
    }
  }
  for (int d = 0; d < rank; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    fit.c[1 + ud] = den[ud] > 0 ? num[ud] / den[ud] : 0.0;
  }
  fit.c[0] = mean;
  for (int d = 0; d < rank; ++d)
    fit.c[0] -= fit.c[1 + static_cast<std::size_t>(d)] *
                cmean[static_cast<std::size_t>(d)];
  return fit;
}

struct BlockGrid {
  std::size_t bs[3];      // block extent per axis
  std::size_t nb[3];      // number of blocks per axis
  std::size_t total = 1;  // total blocks
};

BlockGrid make_grid(const Dims& d, const SZ21::Options& opt) {
  BlockGrid g{};
  const std::size_t bs = d.rank == 1   ? opt.block_1d
                         : d.rank == 2 ? opt.block_2d
                                       : opt.block_3d;
  for (int i = 0; i < 3; ++i) {
    g.bs[i] = i < d.rank ? bs : 1;
    g.nb[i] = i < d.rank ? num_blocks(d[i], bs) : 1;
    g.total *= g.nb[i];
  }
  return g;
}

}  // namespace

std::vector<std::uint8_t> SZ21::compress(const Field& f,
                                         const ErrorBound& eb) {
  const Dims& d = f.dims();
  const double abs_eb = sz::resolve_abs_eb(f, eb, "SZ2.1");
  const int rank = d.rank;

  ByteWriter w;
  sz::write_header(w, kMagic, d, eb, abs_eb);

  const BlockGrid g = make_grid(d, opt_);

  std::vector<std::uint8_t> flags(g.total, 0);  // 1 = regression
  std::vector<PlaneFit> fits(g.total);
  const double slope_prec = 2.0 * abs_eb / static_cast<double>(g.bs[0]);
  const double icept_prec = abs_eb;
  ByteWriter coeff_w;

  prof::StageScope predict_stage(prof::Stage::kPredict);
  // Pass 1: per-block predictor selection on original data, regression
  // coefficient quantization.
  const float* src = f.data();
  std::vector<float> blockbuf(g.bs[0] * g.bs[1] * g.bs[2]);
  std::size_t bid = 0;
  for (std::size_t B0 = 0; B0 < g.nb[0]; ++B0) {
    for (std::size_t B1 = 0; B1 < g.nb[1]; ++B1) {
      for (std::size_t B2 = 0; B2 < g.nb[2]; ++B2, ++bid) {
        const std::size_t off[3] = {B0 * g.bs[0], B1 * g.bs[1], B2 * g.bs[2]};
        std::size_t ext[3] = {1, 1, 1};
        for (int i = 0; i < rank; ++i)
          ext[i] = std::min(g.bs[i], d[i] - off[i]);
        if (!opt_.enable_regression) continue;

        PlaneFit fit = fit_plane(src, d, rank, off, ext);
        // Quantize coefficients; prediction must use the dequantized values
        // the decompressor will see.
        for (int ci = 0; ci <= rank; ++ci) {
          const double prec = ci == 0 ? icept_prec : slope_prec;
          const auto q = static_cast<std::int64_t>(
              std::nearbyint(fit.c[static_cast<std::size_t>(ci)] / prec));
          fit.c[static_cast<std::size_t>(ci)] = prec * static_cast<double>(q);
        }

        // Copy block & compute selection losses on original data.
        double reg_loss = 0.0;
        for (std::size_t a = 0; a < ext[0]; ++a)
          for (std::size_t b = 0; b < ext[1]; ++b)
            for (std::size_t c = 0; c < ext[2]; ++c) {
              const std::size_t idx =
                  rank == 1 ? off[0] + a
                  : rank == 2 ? lin2(d, off[0] + a, off[1] + b)
                              : lin3(d, off[0] + a, off[1] + b, off[2] + c);
              blockbuf[(a * ext[1] + b) * ext[2] + c] = src[idx];
              const double pred = fit.c[0] + fit.c[1] * static_cast<double>(a) +
                                  fit.c[2] * static_cast<double>(b) +
                                  fit.c[3] * static_cast<double>(c);
              reg_loss += std::abs(static_cast<double>(src[idx]) - pred);
            }
        const std::span<const float> bb(blockbuf.data(),
                                        ext[0] * ext[1] * ext[2]);
        const double lor_loss =
            rank == 1   ? lorenzo::block_l1_loss_2d(bb, 1, ext[0])
            : rank == 2 ? lorenzo::block_l1_loss_2d(bb, ext[0], ext[1])
                        : lorenzo::block_l1_loss_3d(bb, ext[0], ext[1], ext[2]);
        if (reg_loss < lor_loss) {
          flags[bid] = 1;
          fits[bid] = fit;
          for (int ci = 0; ci <= rank; ++ci) {
            const double prec = ci == 0 ? icept_prec : slope_prec;
            coeff_w.put_varint(sz::zigzag(static_cast<std::int64_t>(
                std::nearbyint(fit.c[static_cast<std::size_t>(ci)] / prec))));
          }
        }
      }
    }
  }

  // Pass 2: blockwise raster encode. Lorenzo reads reconstructed neighbors
  // (block-raster + inner-raster order keeps the causal stencil available).
  std::vector<float> recon(d.total());
  QuantEncoder enc(abs_eb, d.total());
  bid = 0;
  for (std::size_t B0 = 0; B0 < g.nb[0]; ++B0) {
    for (std::size_t B1 = 0; B1 < g.nb[1]; ++B1) {
      for (std::size_t B2 = 0; B2 < g.nb[2]; ++B2, ++bid) {
        const std::size_t off[3] = {B0 * g.bs[0], B1 * g.bs[1], B2 * g.bs[2]};
        std::size_t ext[3] = {1, 1, 1};
        for (int i = 0; i < rank; ++i)
          ext[i] = std::min(g.bs[i], d[i] - off[i]);
        const bool reg = flags[bid] != 0;
        const PlaneFit& fit = fits[bid];
        for (std::size_t a = 0; a < ext[0]; ++a) {
          for (std::size_t b = 0; b < ext[1]; ++b) {
            for (std::size_t c = 0; c < ext[2]; ++c) {
              const std::size_t i0 = off[0] + a, i1 = off[1] + b,
                                i2 = off[2] + c;
              const std::size_t idx = rank == 1   ? i0
                                      : rank == 2 ? lin2(d, i0, i1)
                                                  : lin3(d, i0, i1, i2);
              float pred;
              if (reg) {
                pred = static_cast<float>(
                    fit.c[0] + fit.c[1] * static_cast<double>(a) +
                    fit.c[2] * static_cast<double>(b) +
                    fit.c[3] * static_cast<double>(c));
              } else {
                pred = rank == 1 ? lorenzo::predict1(recon.data(), idx)
                       : rank == 2
                           ? lorenzo::predict2(recon.data(), d, i0, i1)
                           : lorenzo::predict3(recon.data(), d, i0, i1, i2);
              }
              recon[idx] = enc.code(src[idx], pred);
            }
          }
        }
      }
    }
  }

  predict_stage.stop();
  // Assemble self-describing stream.
  {
    std::vector<std::uint8_t> packed((g.total + 7) / 8, 0);
    for (std::size_t i = 0; i < g.total; ++i)
      if (flags[i]) packed[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
    w.put_blob(lz::compress(packed));
  }
  w.put_blob(lz::compress(coeff_w.bytes()));
  enc.write(w);
  return sz::seal_stream(w.take());
}

Field SZ21::decompress_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const sz::StreamHeader h = sz::read_header_or_throw(r, kMagic);
  const Dims d = h.dims;
  const double abs_eb = h.abs_eb;
  const int rank = d.rank;
  const BlockGrid g = make_grid(d, opt_);

  const auto packed = lz::decompress(r.get_blob());
  std::vector<std::uint8_t> flags(g.total, 0);
  AESZ_CHECK_STREAM(packed.size() >= (g.total + 7) / 8, "bad flag blob");
  for (std::size_t i = 0; i < g.total; ++i)
    flags[i] = (packed[i >> 3] >> (i & 7)) & 1;

  const auto coeff_bytes = lz::decompress(r.get_blob());
  ByteReader coeff_r(coeff_bytes);
  const double slope_prec = 2.0 * abs_eb / static_cast<double>(g.bs[0]);
  const double icept_prec = abs_eb;

  QuantDecoder dec(r, abs_eb, d.total());

  prof::StageScope predict_stage(prof::Stage::kPredict);
  Field out(d);
  float* recon = out.data();
  std::size_t bid = 0;
  for (std::size_t B0 = 0; B0 < g.nb[0]; ++B0) {
    for (std::size_t B1 = 0; B1 < g.nb[1]; ++B1) {
      for (std::size_t B2 = 0; B2 < g.nb[2]; ++B2, ++bid) {
        const std::size_t off[3] = {B0 * g.bs[0], B1 * g.bs[1], B2 * g.bs[2]};
        std::size_t ext[3] = {1, 1, 1};
        for (int i = 0; i < rank; ++i)
          ext[i] = std::min(g.bs[i], d[i] - off[i]);
        PlaneFit fit;
        const bool reg = flags[bid] != 0;
        if (reg) {
          for (int cj = 0; cj <= rank; ++cj) {
            const double prec = cj == 0 ? icept_prec : slope_prec;
            fit.c[static_cast<std::size_t>(cj)] =
                prec *
                static_cast<double>(sz::unzigzag(coeff_r.get_varint()));
          }
        }
        for (std::size_t a = 0; a < ext[0]; ++a) {
          for (std::size_t b = 0; b < ext[1]; ++b) {
            for (std::size_t c = 0; c < ext[2]; ++c) {
              const std::size_t i0 = off[0] + a, i1 = off[1] + b,
                                i2 = off[2] + c;
              const std::size_t idx = rank == 1   ? i0
                                      : rank == 2 ? lin2(d, i0, i1)
                                                  : lin3(d, i0, i1, i2);
              float pred;
              if (reg) {
                pred = static_cast<float>(
                    fit.c[0] + fit.c[1] * static_cast<double>(a) +
                    fit.c[2] * static_cast<double>(b) +
                    fit.c[3] * static_cast<double>(c));
              } else {
                pred = rank == 1 ? lorenzo::predict1(recon, idx)
                       : rank == 2 ? lorenzo::predict2(recon, d, i0, i1)
                                   : lorenzo::predict3(recon, d, i0, i1, i2);
              }
              recon[idx] = dec.next(pred);
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace aesz
