// Figure 6: rate distortion of the SWAE prediction as a function of how
// hard the latent vectors are compressed (no residual quantization). The
// paper's takeaway (§IV-E): prediction PSNR is flat until the latent bit
// rate falls below ~0.1 bits/value, i.e. latents tolerate ~4x lossy
// compression at no accuracy cost.

#include "bench/common.hpp"
#include "core/latent_codec.hpp"
#include "core/training.hpp"

namespace {

using namespace aesz;

struct LatentHarvest {
  std::vector<float> latents;  // all blocks, concatenated
  double range = 0.0;
};

LatentHarvest harvest(AESZ& codec, const Field& test) {
  const nn::AEConfig& cfg = codec.trainer().model().config();
  auto batches = make_eval_batches(test, cfg, 64);
  LatentHarvest h;
  for (auto& b : batches) {
    nn::Tensor z = codec.trainer().encode_latent(b);
    h.latents.insert(h.latents.end(), z.data(), z.data() + z.numel());
  }
  float lo = h.latents[0], hi = h.latents[0];
  for (float v : h.latents) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  h.range = static_cast<double>(hi) - lo;
  return h;
}

/// Decode (possibly quantized) latents through the AE and PSNR the
/// assembled prediction against the test field.
double prediction_psnr_from_latents(AESZ& codec, const Field& test,
                                    const std::vector<float>& latents) {
  const nn::AEConfig& cfg = codec.trainer().model().config();
  const BlockSplit split = make_block_split(test.dims(), cfg.block);
  auto [lo, hi] = test.min_max();
  const Normalizer nrm{lo, hi};
  const std::size_t ld = cfg.latent;
  const std::size_t be = split.block_elems();
  Field pred(test.dims());
  const std::size_t batch = 64;
  for (std::size_t start = 0; start < split.total; start += batch) {
    const std::size_t n = std::min(batch, split.total - start);
    nn::Tensor z({n, ld});
    std::copy(latents.data() + start * ld, latents.data() + (start + n) * ld,
              z.data());
    nn::Tensor rec = codec.trainer().model().decode(z, false);
    for (std::size_t i = 0; i < n; ++i)
      insert_block(rec.data() + i * be, split, start + i, nrm, pred);
  }
  return metrics::psnr(test.values(), pred.values());
}

void run_dataset(bench::SplitDataset ds, const nn::AEConfig& cfg,
                 std::size_t batch) {
  AESZ::Options opt;
  opt.ae = cfg;
  AESZ codec(opt, 37);
  bench::train_codec(codec, bench::ptrs(ds), ds.name.c_str(), batch);
  const LatentHarvest h = harvest(codec, ds.test);

  std::printf("%-16s %14s %12s %12s\n", "latent eb(rel)", "latent bitrate",
              "latent CR", "pred PSNR");
  for (double rel : {0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1}) {
    std::vector<float> zq = h.latents;
    std::size_t bytes;
    if (rel > 0) {
      const double abs_eb = rel * h.range;
      for (float& v : zq) v = latent_codec::quantize_value(v, abs_eb);
      bytes = latent_codec::encode(h.latents, abs_eb).size();
    } else {
      bytes = h.latents.size() * sizeof(float);  // raw float32 latents
    }
    const double psnr = prediction_psnr_from_latents(codec, ds.test, zq);
    std::printf("%-16.1e %14.4f %12.2f %12.2f\n", rel,
                8.0 * static_cast<double>(bytes) /
                    static_cast<double>(ds.test.size()),
                static_cast<double>(h.latents.size() * sizeof(float)) /
                    static_cast<double>(bytes),
                psnr);
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  bench::banner(
      "Figure 6 — SWAE prediction PSNR vs latent bit rate",
      "paper Fig. 6: PSNR flat down to ~0.1 bits/value (latent CR ~4), "
      "then falls off");
  std::printf("\n-- CESM-FREQSH --\n");
  run_dataset(bench::ds_cesm_freqsh(), bench::ae2d(32, 32), 32);
  std::printf("\n-- NYX-baryon_density (log) --\n");
  run_dataset(bench::ds_nyx_bd(), bench::ae3d(), 16);
  return 0;
}
