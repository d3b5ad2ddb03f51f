#include "sz/sz21.hpp"

#include <array>
#include <cmath>

#include "lossless/lz.hpp"
#include "predictors/blocks.hpp"
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

  /// The plane at block-local coordinate (a, b, k).
  double at(std::size_t a, std::size_t b, std::size_t k) const {
    return c[0] + c[1] * static_cast<double>(a) +
           c[2] * static_cast<double>(b) + c[3] * static_cast<double>(k);
  }
};

PlaneFit fit_plane(const float* f, const Dims& fd, int rank,
                   const std::size_t* off, const std::size_t* ext) {
  PlaneFit fit;
  double n = 0.0, mean = 0.0;
  std::array<double, 3> cmean{0, 0, 0};
  // First pass: means.
  for_valid(fd, off, ext,
            [&](std::size_t idx, std::size_t a, std::size_t b, std::size_t c) {
              mean += f[idx];
              cmean[0] += static_cast<double>(a);
              cmean[1] += static_cast<double>(b);
              cmean[2] += static_cast<double>(c);
              n += 1.0;
            });
  mean /= n;
  for (auto& v : cmean) v /= n;
  // Second pass: slopes.
  std::array<double, 3> num{0, 0, 0}, den{0, 0, 0};
  for_valid(fd, off, ext,
            [&](std::size_t idx, std::size_t a, std::size_t b, std::size_t c) {
              const double df = f[idx] - mean;
              const double dc[3] = {static_cast<double>(a) - cmean[0],
                                    static_cast<double>(b) - cmean[1],
                                    static_cast<double>(c) - cmean[2]};
              for (int d = 0; d < rank; ++d) {
                num[static_cast<std::size_t>(d)] += dc[d] * df;
                den[static_cast<std::size_t>(d)] += dc[d] * dc[d];
              }
            });
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

BlockSplit make_split(const Dims& d, const SZ21::Options& opt) {
  return make_block_split(d, d.rank == 1   ? opt.block_1d
                             : d.rank == 2 ? opt.block_2d
                                           : opt.block_3d);
}

/// The one SZ2.1 traversal, shared by compress and decompress: blocks in
/// raster order, points in raster order within each block. `fit_of(bid)`
/// returns the block's dequantized regression plane, or nullptr for
/// Lorenzo, which reads already-visited entries of `recon`;
/// `step(idx, pred)` codes or decodes point `idx`. The rank is resolved
/// once per call and the predictor once per block.
template <typename FitFn, typename StepFn>
void walk(const BlockSplit& s, const float* recon, FitFn&& fit_of,
          StepFn&& step) {
  const Dims& d = s.field_dims;
  with_rank(s.rank, [&](auto R) {
    for (std::size_t bid = 0; bid < s.total; ++bid) {
      std::size_t off[3], ext[3];
      block_region(s, bid, off, ext);
      if (const PlaneFit* fit = fit_of(bid)) {
        for_valid(d, off, ext,
                  [&](std::size_t idx, std::size_t a, std::size_t b,
                      std::size_t c) {
                    step(idx, static_cast<float>(fit->at(a, b, c)));
                  });
      } else {
        for_valid(d, off, ext,
                  [&](std::size_t idx, std::size_t a, std::size_t b,
                      std::size_t c) {
                    step(idx, lorenzo::predict<R>(recon, d, off[0] + a,
                                                  off[1] + b, off[2] + c));
                  });
      }
    }
  });
}

}  // namespace

std::vector<std::uint8_t> SZ21::compress(const Field& f,
                                         const ErrorBound& eb) {
  const Dims& d = f.dims();
  const double abs_eb = sz::resolve_abs_eb(f, eb, "SZ2.1");
  const int rank = d.rank;

  ByteWriter w;
  sz::write_header(w, kMagic, d, eb, abs_eb);

  const BlockSplit split = make_split(d, opt_);

  std::vector<std::uint8_t> flags(split.total, 0);  // 1 = regression
  std::vector<PlaneFit> fits(split.total);
  const double slope_prec = 2.0 * abs_eb / static_cast<double>(split.bs);
  const double icept_prec = abs_eb;
  ByteWriter coeff_w;

  prof::StageScope predict_stage(prof::Stage::kPredict);
  // Pass 1: per-block predictor selection on original data, regression
  // coefficient quantization.
  const float* src = f.data();
  for (std::size_t bid = 0; opt_.enable_regression && bid < split.total;
       ++bid) {
    std::size_t off[3], ext[3];
    block_region(split, bid, off, ext);
    PlaneFit fit = fit_plane(src, d, rank, off, ext);
    // Quantize coefficients; prediction must use the dequantized values
    // the decompressor will see.
    for (int ci = 0; ci <= rank; ++ci) {
      const double prec = ci == 0 ? icept_prec : slope_prec;
      const auto q = static_cast<std::int64_t>(
          std::nearbyint(fit.c[static_cast<std::size_t>(ci)] / prec));
      fit.c[static_cast<std::size_t>(ci)] = prec * static_cast<double>(q);
    }
    // Selection losses on original data.
    double reg_loss = 0.0;
    for_valid(d, off, ext,
              [&](std::size_t idx, std::size_t a, std::size_t b,
                  std::size_t c) {
                reg_loss += std::abs(static_cast<double>(src[idx]) -
                                     fit.at(a, b, c));
              });
    if (reg_loss < block_l1_lorenzo(f, split, bid)) {
      flags[bid] = 1;
      fits[bid] = fit;
      for (int ci = 0; ci <= rank; ++ci) {
        const double prec = ci == 0 ? icept_prec : slope_prec;
        coeff_w.put_varint(sz::zigzag(static_cast<std::int64_t>(
            std::nearbyint(fit.c[static_cast<std::size_t>(ci)] / prec))));
      }
    }
  }

  // Pass 2: blockwise raster encode. Lorenzo reads reconstructed neighbors
  // (block-raster + inner-raster order keeps the causal stencil available).
  std::vector<float> recon(d.total());
  QuantEncoder enc(abs_eb, d.total());
  walk(
      split, recon.data(),
      [&](std::size_t bid) { return flags[bid] ? &fits[bid] : nullptr; },
      [&](std::size_t idx, float pred) {
        recon[idx] = enc.code(src[idx], pred);
      });

  predict_stage.stop();
  // Assemble self-describing stream.
  {
    std::vector<std::uint8_t> packed((split.total + 7) / 8, 0);
    for (std::size_t i = 0; i < split.total; ++i)
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
  const BlockSplit split = make_split(d, opt_);

  const auto packed = lz::decompress(r.get_blob());
  std::vector<std::uint8_t> flags(split.total, 0);
  AESZ_CHECK_STREAM(packed.size() == (split.total + 7) / 8, "bad flag blob");
  for (std::size_t i = 0; i < split.total; ++i)
    flags[i] = (packed[i >> 3] >> (i & 7)) & 1;

  const auto coeff_bytes = lz::decompress(r.get_blob());
  ByteReader coeff_r(coeff_bytes);
  const double slope_prec = 2.0 * abs_eb / static_cast<double>(split.bs);
  const double icept_prec = abs_eb;

  QuantDecoder dec(r, abs_eb, d.total());

  prof::StageScope predict_stage(prof::Stage::kPredict);
  Field out(d);
  float* recon = out.data();
  PlaneFit fit;  // c[rank + 1 ..] stay 0 for every block
  walk(
      split, recon,
      [&](std::size_t bid) -> const PlaneFit* {
        if (!flags[bid]) return nullptr;
        for (int cj = 0; cj <= rank; ++cj) {
          const double prec = cj == 0 ? icept_prec : slope_prec;
          fit.c[static_cast<std::size_t>(cj)] =
              prec * static_cast<double>(sz::unzigzag(coeff_r.get_varint()));
        }
        return &fit;
      },
      [&](std::size_t idx, float pred) { recon[idx] = dec.next(pred); });
  AESZ_CHECK_STREAM(coeff_r.eof(), "extra regression coefficients");
  return out;
}

}  // namespace aesz
