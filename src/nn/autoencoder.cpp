#include "nn/autoencoder.hpp"

namespace aesz::nn {

std::unique_ptr<Layer> ConvAutoencoder::make_act(std::size_t channels,
                                                 bool inverse, Rng&) {
  switch (cfg_.act) {
    case Activation::kGDN:
      return std::make_unique<GDN>(channels, inverse);
    case Activation::kReLU:
      return std::make_unique<LeakyReLU>(0.0f);
    case Activation::kLeakyReLU:
      return std::make_unique<LeakyReLU>(0.2f);
  }
  throw Error("unknown activation");
}

ConvAutoencoder::ConvAutoencoder(AEConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)) {
  AESZ_CHECK_MSG(cfg_.rank == 2 || cfg_.rank == 3, "rank must be 2 or 3");
  AESZ_CHECK_MSG(!cfg_.channels.empty(), "need at least one conv block");
  const std::size_t nb = cfg_.channels.size();
  AESZ_CHECK_MSG(cfg_.block >= (std::size_t{1} << nb),
                 "block too small for the number of stride-2 halvings");
  Rng rng(seed);

  min_spatial_ = cfg_.block >> nb;
  flat_ = cfg_.channels.back();
  for (int i = 0; i < cfg_.rank; ++i) flat_ *= min_spatial_;

  // ---- Encoder: [Conv(s1) Conv(s2) Act] per channel entry, then FC.
  std::size_t prev = 1;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t c = cfg_.channels[b];
    enc_.push_back(std::make_unique<Conv>(cfg_.rank, prev, c, 3, 1, 1, rng));
    enc_.push_back(std::make_unique<Conv>(cfg_.rank, c, c, 3, 2, 1, rng));
    enc_.push_back(make_act(c, /*inverse=*/false, rng));
    prev = c;
  }
  const std::size_t enc_out = cfg_.variational ? 2 * cfg_.latent : cfg_.latent;
  enc_fc_ = std::make_unique<Linear>(flat_, enc_out, rng);

  // ---- Decoder: FC, then mirror blocks [ConvT(s1) ConvT(s2) iAct], then
  // the final output layer-set Conv(s1)+tanh.
  dec_fc_ = std::make_unique<Linear>(cfg_.latent, flat_, rng);
  for (std::size_t b = nb; b-- > 0;) {
    const std::size_t c = cfg_.channels[b];
    const std::size_t cnext = b > 0 ? cfg_.channels[b - 1] : cfg_.channels[0];
    dec_.push_back(
        std::make_unique<ConvT>(cfg_.rank, c, c, 3, 1, 1, 0, rng));
    dec_.push_back(
        std::make_unique<ConvT>(cfg_.rank, c, cnext, 3, 2, 1, 1, rng));
    dec_.push_back(make_act(cnext, /*inverse=*/true, rng));
  }
  dec_.push_back(
      std::make_unique<Conv>(cfg_.rank, cfg_.channels[0], 1, 3, 1, 1, rng));
  dec_.push_back(std::make_unique<Tanh>());
}

Tensor ConvAutoencoder::encode(const Tensor& x, bool train) {
  AESZ_CHECK_MSG(x.dim(1) == 1 && x.dim(2) == cfg_.block,
                 "encoder input must be (N, 1, block, ...)");
  Tensor h = x;
  for (auto& l : enc_) h = l->forward(h, train);
  h = h.reshaped({h.dim(0), flat_});
  return enc_fc_->forward(h, train);
}

Tensor ConvAutoencoder::decode(const Tensor& z, bool train) {
  AESZ_CHECK_MSG(z.shape().size() == 2 && z.dim(1) == cfg_.latent,
                 "decoder input must be (N, latent)");
  Tensor h = dec_fc_->forward(z, train);
  std::vector<std::size_t> shape{h.dim(0), cfg_.channels.back()};
  for (int i = 0; i < cfg_.rank; ++i) shape.push_back(min_spatial_);
  h = h.reshaped(shape);
  for (auto& l : dec_) h = l->forward(h, train);
  return h;
}

Tensor ConvAutoencoder::backward_decode(const Tensor& gy) {
  Tensor g = gy;
  for (auto it = dec_.rbegin(); it != dec_.rend(); ++it)
    g = (*it)->backward(g);
  g = g.reshaped({g.dim(0), flat_});
  return dec_fc_->backward(g);
}

void ConvAutoencoder::backward_encode(const Tensor& gz) {
  Tensor g = enc_fc_->backward(gz);
  std::vector<std::size_t> shape{g.dim(0), cfg_.channels.back()};
  for (int i = 0; i < cfg_.rank; ++i) shape.push_back(min_spatial_);
  g = g.reshaped(shape);
  for (auto it = enc_.rbegin(); it != enc_.rend(); ++it)
    g = (*it)->backward(g);
}

std::vector<Param*> ConvAutoencoder::params() {
  std::vector<Param*> out;
  for (auto& l : enc_)
    for (Param* p : l->params()) out.push_back(p);
  for (Param* p : enc_fc_->params()) out.push_back(p);
  for (Param* p : dec_fc_->params()) out.push_back(p);
  for (auto& l : dec_)
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

void ConvAutoencoder::project() {
  for (auto& l : enc_) l->project();
  for (auto& l : dec_) l->project();
}

std::size_t ConvAutoencoder::param_count() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

void ConvAutoencoder::save(ByteWriter& w) {
  const auto ps = params();
  w.put_varint(ps.size());
  for (Param* p : ps) {
    w.put_varint(p->value.shape().size());
    for (std::size_t s : p->value.shape()) w.put_varint(s);
    w.put_array<float>(p->value.flat());
  }
}

void ConvAutoencoder::load(ByteReader& r) {
  const auto ps = params();
  const std::uint64_t n = r.get_varint();
  AESZ_CHECK_MSG(n == ps.size(), "model parameter count mismatch");
  for (Param* p : ps) {
    const std::uint64_t ndim = r.get_varint();
    AESZ_CHECK_MSG(ndim == p->value.shape().size(), "model shape mismatch");
    for (std::size_t s : p->value.shape())
      AESZ_CHECK_MSG(r.get_varint() == s, "model shape mismatch");
    const auto vals = r.get_array<float>();
    AESZ_CHECK_MSG(vals.size() == p->value.numel(), "model size mismatch");
    std::copy(vals.begin(), vals.end(), p->value.data());
  }
}

}  // namespace aesz::nn
