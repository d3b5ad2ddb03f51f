#include "sz/szauto.hpp"

#include <cmath>

#include "predictors/blocks.hpp"
#include "predictors/lorenzo.hpp"
#include "predictors/quantizer.hpp"
#include "sz/common.hpp"
#include "util/stage_timer.hpp"

namespace aesz {
namespace {

constexpr std::uint32_t kMagic = SZAuto::kStreamMagic;

/// Sampled L1 prediction error of the first- vs second-order stencil on the
/// original data — the "automatic parameter selection" step. Sampling every
/// `stride`-th point keeps this O(n / stride).
bool second_order_wins(const Field& f) {
  const Dims& d = f.dims();
  const float* v = f.data();
  double e1 = 0.0, e2 = 0.0;
  const std::size_t stride = std::max<std::size_t>(d.total() / 65536, 1);
  if (d.rank == 1) {
    for (std::size_t i = 2; i < d[0]; i += stride) {
      e1 += std::abs(v[i] - lorenzo::predict1(v, i));
      e2 += std::abs(v[i] - lorenzo::predict1_2nd(v, i));
    }
  } else if (d.rank == 2) {
    for (std::size_t t = 0; t < d.total(); t += stride) {
      const std::size_t i = t / d[1], j = t % d[1];
      if (i < 2 || j < 2) continue;
      e1 += std::abs(v[t] - lorenzo::predict2(v, d, i, j));
      e2 += std::abs(v[t] - lorenzo::predict2_2nd(v, d, i, j));
    }
  } else {
    for (std::size_t t = 0; t < d.total(); t += stride) {
      const std::size_t i = t / (d[1] * d[2]);
      const std::size_t j = (t / d[2]) % d[1];
      const std::size_t k = t % d[2];
      if (i < 2 || j < 2 || k < 2) continue;
      e1 += std::abs(v[t] - lorenzo::predict3(v, d, i, j, k));
      e2 += std::abs(v[t] - lorenzo::predict3_2nd(v, d, i, j, k));
    }
  }
  return e2 < e1;
}

/// The one SZauto traversal, shared by compress and decompress: the whole
/// field in raster order, rank and stencil order resolved once per call.
/// `step(idx, pred)` codes or decodes point `idx`; the stencil reads only
/// already-visited entries of `recon`.
template <typename StepFn>
void walk(const Dims& d, bool second_order, const float* recon,
          StepFn&& step) {
  const std::size_t off[3] = {0, 0, 0};
  const std::size_t ext[3] = {d[0], d.rank >= 2 ? d[1] : 1,
                              d.rank >= 3 ? d[2] : 1};
  with_rank(d.rank, [&](auto R) {
    const auto run = [&](auto order) {
      for_valid(d, off, ext,
                [&](std::size_t idx, std::size_t i, std::size_t j,
                    std::size_t k) {
                  step(idx, lorenzo::predict<R, order>(recon, d, i, j, k));
                });
    };
    if (second_order)
      run(std::integral_constant<int, 2>{});
    else
      run(std::integral_constant<int, 1>{});
  });
}

}  // namespace

std::vector<std::uint8_t> SZAuto::compress(const Field& f,
                                           const ErrorBound& eb) {
  const Dims& d = f.dims();
  const double abs_eb = sz::resolve_abs_eb(f, eb, "SZauto");

  const bool use2nd = second_order_wins(f);

  ByteWriter w;
  sz::write_header(w, kMagic, d, eb, abs_eb);
  w.put(static_cast<std::uint8_t>(use2nd ? 2 : 1));

  const float* src = f.data();
  std::vector<float> recon(d.total());
  QuantEncoder enc(abs_eb, d.total());
  prof::StageScope predict_stage(prof::Stage::kPredict);

  walk(d, use2nd, recon.data(), [&](std::size_t idx, float pred) {
    recon[idx] = enc.code(src[idx], pred);
  });

  predict_stage.stop();
  enc.write(w);
  return sz::seal_stream(w.take());
}

Field SZAuto::decompress_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const sz::StreamHeader h = sz::read_header_or_throw(r, kMagic);
  const Dims d = h.dims;
  const double abs_eb = h.abs_eb;
  const int order = r.get<std::uint8_t>();
  AESZ_CHECK_STREAM(order == 1 || order == 2, "bad predictor order");
  const bool use2nd = order == 2;

  QuantDecoder dec(r, abs_eb, d.total());

  prof::StageScope predict_stage(prof::Stage::kPredict);
  Field out(d);
  float* recon = out.data();

  walk(d, use2nd, recon,
       [&](std::size_t idx, float pred) { recon[idx] = dec.next(pred); });
  return out;
}

}  // namespace aesz
