// Figure 7: distribution (PDF) of prediction errors for the Lorenzo
// predictor, the linear-regression predictor, and the convolutional AE on a
// CESM-FREQSH snapshot, at error bounds 1e-2 and 1e-4. Paper: at 1e-2 the
// AE has the sharpest error distribution; at 1e-4 Lorenzo's sharpens
// dramatically (its reconstruction-feedback noise shrinks with the bound)
// while the AE's stays fixed at its representation floor.

#include "bench/common.hpp"
#include "core/latent_codec.hpp"
#include "core/training.hpp"
#include "predictors/lorenzo.hpp"
#include "predictors/quantizer.hpp"

namespace {

using namespace aesz;

/// Lorenzo prediction errors under an eb-noised reconstruction — exactly
/// what the online compressor sees.
std::vector<float> lorenzo_pred(const Field& f, double abs_eb) {
  const Dims& d = f.dims();
  LinearQuantizer q(abs_eb);
  std::vector<float> recon(d.total());
  std::vector<float> pred(d.total());
  for (std::size_t i = 0; i < d[0]; ++i) {
    for (std::size_t j = 0; j < d[1]; ++j) {
      const std::size_t idx = lin2(d, i, j);
      const float p = lorenzo::predict2(recon.data(), d, i, j);
      pred[idx] = p;
      float r;
      q.quantize(f.at(idx), p, r);
      recon[idx] = r;
    }
  }
  return pred;
}

/// SZ2.1-style hyperplane fit per 12x12 block on original data.
std::vector<float> regression_pred(const Field& f) {
  const Dims& d = f.dims();
  std::vector<float> pred(d.total());
  const std::size_t bs = 12;
  for (std::size_t bi = 0; bi < d[0]; bi += bs) {
    for (std::size_t bj = 0; bj < d[1]; bj += bs) {
      const std::size_t ei = std::min(bs, d[0] - bi);
      const std::size_t ej = std::min(bs, d[1] - bj);
      double sum = 0, si = 0, sj = 0;
      for (std::size_t a = 0; a < ei; ++a)
        for (std::size_t b = 0; b < ej; ++b) {
          sum += f.at2(bi + a, bj + b);
          si += static_cast<double>(a);
          sj += static_cast<double>(b);
        }
      const double n = static_cast<double>(ei * ej);
      const double mean = sum / n, mi = si / n, mj = sj / n;
      double ni = 0, di = 0, nj = 0, dj = 0;
      for (std::size_t a = 0; a < ei; ++a)
        for (std::size_t b = 0; b < ej; ++b) {
          const double df = f.at2(bi + a, bj + b) - mean;
          ni += (a - mi) * df;
          di += (a - mi) * (a - mi);
          nj += (b - mj) * df;
          dj += (b - mj) * (b - mj);
        }
      const double ci = di > 0 ? ni / di : 0.0;
      const double cj = dj > 0 ? nj / dj : 0.0;
      for (std::size_t a = 0; a < ei; ++a)
        for (std::size_t b = 0; b < ej; ++b)
          pred[lin2(d, bi + a, bj + b)] = static_cast<float>(
              mean + ci * (a - mi) + cj * (b - mj));
    }
  }
  return pred;
}

/// AE prediction with latents quantized at 0.1 * abs_eb.
Field ae_pred(AESZ& codec, const Field& f, double abs_eb) {
  const nn::AEConfig& cfg = codec.trainer().model().config();
  const BlockSplit split = make_block_split(f.dims(), cfg.block);
  auto [lo, hi] = f.min_max();
  const Normalizer nrm{lo, hi};
  Field pred(f.dims());
  auto batches = make_eval_batches(f, cfg, 64);
  std::size_t bid0 = 0;
  const std::size_t be = split.block_elems();
  for (auto& b : batches) {
    nn::Tensor z = codec.trainer().encode_latent(b);
    for (std::size_t i = 0; i < z.numel(); ++i)
      z[i] = latent_codec::quantize_value(z[i], 0.1 * abs_eb);
    nn::Tensor rec = codec.trainer().model().decode(z, false);
    for (std::size_t i = 0; i < rec.dim(0); ++i)
      insert_block(rec.data() + i * be, split, bid0 + i, nrm, pred);
    bid0 += rec.dim(0);
  }
  return pred;
}

void print_pdf(const Field& f, std::span<const float> lor,
               std::span<const float> reg, std::span<const float> ae) {
  constexpr std::size_t kBins = 21;
  const double span = 0.1;  // the paper's x-axis: errors in [-0.1, 0.1]
  const auto p_lor = metrics::error_pdf(f.values(), lor, -span, span, kBins);
  const auto p_reg = metrics::error_pdf(f.values(), reg, -span, span, kBins);
  const auto p_ae = metrics::error_pdf(f.values(), ae, -span, span, kBins);
  std::printf("%10s %12s %12s %12s\n", "err", "lorenzo", "linear_reg",
              "conv_AE");
  for (std::size_t b = 0; b < kBins; ++b) {
    const double center = -span + (b + 0.5) * 2.0 * span / kBins;
    std::printf("%10.3f %12.5f %12.5f %12.5f\n", center, p_lor[b], p_reg[b],
                p_ae[b]);
  }
  // Peak sharpness summary (probability mass in the central bin).
  const std::size_t mid = kBins / 2;
  std::printf("central-bin mass: lorenzo %.3f, linear_reg %.3f, conv_AE %.3f\n",
              p_lor[mid], p_reg[mid], p_ae[mid]);
}

}  // namespace

int main() {
  bench::banner(
      "Figure 7 — PDF of prediction errors (CESM-FREQSH)",
      "paper Fig. 7: at eb 1e-2 conv-AE sharpest; at eb 1e-4 Lorenzo "
      "sharpest by far");
  bench::SplitDataset ds = bench::ds_cesm_freqsh();
  AESZ::Options opt;
  opt.ae = bench::ae2d();
  AESZ codec(opt, 41);
  bench::train_codec(codec, bench::ptrs(ds), ds.name.c_str());

  const auto reg = regression_pred(ds.test);
  for (double rel_eb : {1e-2, 1e-4}) {
    const double abs_eb = rel_eb * ds.test.value_range();
    std::printf("\n-- error bound %.0e --\n", rel_eb);
    const auto lor = lorenzo_pred(ds.test, abs_eb);
    const auto ae = ae_pred(codec, ds.test, abs_eb);
    print_pdf(ds.test, lor, reg, ae.values());
    std::fflush(stdout);
  }
  return 0;
}
