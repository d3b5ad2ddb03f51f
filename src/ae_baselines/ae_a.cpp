#include "ae_baselines/ae_a.hpp"

#include <algorithm>
#include <cmath>

#include "lossless/lz.hpp"
#include "nn/losses.hpp"
#include "predictors/quantizer.hpp"
#include "sz/common.hpp"

namespace aesz {
namespace {

constexpr std::uint32_t kMagic = AEA::kStreamMagic;

}  // namespace

AEA::AEA(Options opt, std::uint64_t seed) : opt_(std::move(opt)) {
  AESZ_CHECK_MSG(opt_.window % 64 == 0, "AE-A window must be divisible by 64");
  Rng rng(seed);
  const std::size_t w = opt_.window;
  // Encoder: w -> w/8 -> w/64 -> latent, LeakyReLU between FC layers
  // (the original uses fully connected layers shrinking 8x each).
  enc_.push_back(std::make_unique<nn::Linear>(w, w / 8, rng));
  enc_.push_back(std::make_unique<nn::LeakyReLU>(0.2f));
  enc_.push_back(std::make_unique<nn::Linear>(w / 8, w / 64, rng));
  enc_.push_back(std::make_unique<nn::LeakyReLU>(0.2f));
  enc_.push_back(std::make_unique<nn::Linear>(w / 64, opt_.latent, rng));
  dec_.push_back(std::make_unique<nn::Linear>(opt_.latent, w / 64, rng));
  dec_.push_back(std::make_unique<nn::LeakyReLU>(0.2f));
  dec_.push_back(std::make_unique<nn::Linear>(w / 64, w / 8, rng));
  dec_.push_back(std::make_unique<nn::LeakyReLU>(0.2f));
  dec_.push_back(std::make_unique<nn::Linear>(w / 8, w, rng));
  dec_.push_back(std::make_unique<nn::Tanh>());
  adam_ = std::make_unique<nn::Adam>(params(), opt_.lr);
}

std::vector<nn::Param*> AEA::params() {
  std::vector<nn::Param*> out;
  for (auto& l : enc_)
    for (nn::Param* p : l->params()) out.push_back(p);
  for (auto& l : dec_)
    for (nn::Param* p : l->params()) out.push_back(p);
  return out;
}

void AEA::encode_window(const float* in, float* latent) {
  nn::Tensor x({1, opt_.window});
  std::copy(in, in + opt_.window, x.data());
  for (auto& l : enc_) x = l->forward(x, false);
  std::copy(x.data(), x.data() + opt_.latent, latent);
}

void AEA::decode_window(const float* latent, float* out) {
  nn::Tensor z({1, opt_.latent});
  std::copy(latent, latent + opt_.latent, z.data());
  for (auto& l : dec_) z = l->forward(z, false);
  std::copy(z.data(), z.data() + opt_.window, out);
}

double AEA::train_step(const nn::Tensor& x) {
  adam_->zero_grad();
  nn::Tensor h = x;
  for (auto& l : enc_) h = l->forward(h, true);
  for (auto& l : dec_) h = l->forward(h, true);
  nn::Tensor g(h.shape());
  const double loss = nn::losses::mse(h, x, g);
  for (auto it = dec_.rbegin(); it != dec_.rend(); ++it) g = (*it)->backward(g);
  for (auto it = enc_.rbegin(); it != enc_.rend(); ++it) g = (*it)->backward(g);
  adam_->step();
  return loss;
}

TrainReport AEA::train(const std::vector<const Field*>& fields,
                       const TrainOptions& opts) {
  // Flatten every field into normalized windows (AE-A is dimension-blind).
  std::vector<std::vector<float>> samples;
  for (const Field* f : fields) {
    auto [lo, hi] = f->min_max();
    const Normalizer nrm{lo, hi};
    const std::size_t nwin = f->size() / opt_.window;
    for (std::size_t wdx = 0; wdx < nwin; ++wdx) {
      samples.emplace_back(opt_.window);
      for (std::size_t i = 0; i < opt_.window; ++i)
        samples.back()[i] = nrm.norm(f->at(wdx * opt_.window + i));
    }
  }
  return train_minibatches(
      std::move(samples), {opt_.window}, opts,
      [&](const nn::Tensor& batch, std::size_t) { return train_step(batch); });
}

std::vector<std::uint8_t> AEA::compress(const Field& f,
                                        const ErrorBound& eb) {
  const Dims& d = f.dims();
  auto [lo, hi] = f.min_max();
  const float range = hi - lo;
  const double abs_eb = sz::resolve_abs_eb(f, eb, "AE-A");
  const std::size_t W = opt_.window;
  const std::size_t n = f.size();
  const std::size_t nwin = (n + W - 1) / W;

  ByteWriter w;
  sz::write_header(w, kMagic, d, eb, abs_eb);
  w.put(lo);
  w.put(hi);
  w.put_varint(W);
  w.put_varint(opt_.latent);

  // Latents stored as raw float32 (the original's overhead), prediction
  // errors quantized like SZ ("the .dvalue files ... compressed by SZ").
  std::vector<float> latents(nwin * opt_.latent);
  std::vector<float> window(W), pred(W);
  const Normalizer nrm{lo, hi};
  QuantEncoder enc(abs_eb, n);

  for (std::size_t wd = 0; wd < nwin; ++wd) {
    const std::size_t base = wd * W;
    const std::size_t len = std::min(W, n - base);
    for (std::size_t i = 0; i < W; ++i)
      window[i] = nrm.norm(f.at(base + std::min(i, len - 1)));
    encode_window(window.data(), latents.data() + wd * opt_.latent);
    decode_window(latents.data() + wd * opt_.latent, pred.data());
    for (std::size_t i = 0; i < len; ++i)
      enc.code(f.at(base + i), lo + (pred[i] + 1.0f) * 0.5f * range);
  }

  {
    ByteWriter lw;
    lw.put_array<float>(latents);
    w.put_blob(lz::compress(lw.bytes()));
  }
  enc.write(w);
  return sz::seal_stream(w.take());
}

Field AEA::decompress_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const sz::StreamHeader h = sz::read_header_or_throw(r, kMagic);
  const Dims d = h.dims;
  const double abs_eb = h.abs_eb;
  const auto lo = r.get<float>();
  const auto hi = r.get<float>();
  const float range = hi - lo;
  const std::size_t W = r.get_varint();
  const std::size_t L = r.get_varint();
  if (W != opt_.window || L != opt_.latent)
    throw Error(ErrCode::kModelMismatch, "AE-A stream config mismatch");

  const auto latent_bytes = lz::decompress(r.get_blob());
  ByteReader lr(latent_bytes);
  const auto latents = lr.get_array<float>();
  QuantDecoder dec(r, abs_eb, d.total());

  const std::size_t n = d.total();
  const std::size_t nwin = (n + W - 1) / W;
  AESZ_CHECK_STREAM(latents.size() == nwin * L, "latent count mismatch");

  Field out(d);
  std::vector<float> pred(W);
  for (std::size_t wd = 0; wd < nwin; ++wd) {
    const std::size_t base = wd * W;
    const std::size_t len = std::min(W, n - base);
    decode_window(latents.data() + wd * L, pred.data());
    for (std::size_t i = 0; i < len; ++i)
      out.at(base + i) = dec.next(lo + (pred[i] + 1.0f) * 0.5f * range);
  }
  return out;
}

}  // namespace aesz
