#include "ae_baselines/ae_b.hpp"

#include <algorithm>

#include "nn/losses.hpp"
#include "sz/common.hpp"

namespace aesz {
namespace {

constexpr std::uint32_t kMagic = AEB::kStreamMagic;

}  // namespace

ResBlock3d::ResBlock3d(std::size_t channels, Rng& rng)
    : conv1_(3, channels, channels, 3, 1, 1, rng),
      conv2_(3, channels, channels, 3, 1, 1, rng), relu_(0.0f) {}

nn::Tensor ResBlock3d::forward(const nn::Tensor& x, bool train) {
  nn::Tensor h = conv1_.forward(x, train);
  h = relu_.forward(h, train);
  h = conv2_.forward(h, train);
  for (std::size_t i = 0; i < h.numel(); ++i) h[i] += x[i];
  return h;
}

nn::Tensor ResBlock3d::backward(const nn::Tensor& gy) {
  nn::Tensor g = conv2_.backward(gy);
  g = relu_.backward(g);
  g = conv1_.backward(g);
  for (std::size_t i = 0; i < g.numel(); ++i) g[i] += gy[i];
  return g;
}

std::vector<nn::Param*> ResBlock3d::params() {
  std::vector<nn::Param*> out;
  for (nn::Param* p : conv1_.params()) out.push_back(p);
  for (nn::Param* p : conv2_.params()) out.push_back(p);
  return out;
}

AEB::AEB(Options opt, std::uint64_t seed) : opt_(std::move(opt)) {
  AESZ_CHECK_MSG(opt_.block % 4 == 0, "AE-B block must be divisible by 4");
  Rng rng(seed);
  const std::size_t wdt = opt_.width;
  // Encoder: lift to `width` channels, then two [res..., stride-2] stages
  // (4x spatial reduction per axis = 64x in 3-D) ending at 1 channel.
  enc_.push_back(std::make_unique<nn::Conv>(3, 1, wdt, 3, 1, 1, rng));
  for (std::size_t i = 0; i < opt_.res_blocks; ++i)
    enc_.push_back(std::make_unique<ResBlock3d>(wdt, rng));
  enc_.push_back(std::make_unique<nn::Conv>(3, wdt, 2 * wdt, 3, 2, 1, rng));
  for (std::size_t i = 0; i < opt_.res_blocks; ++i)
    enc_.push_back(std::make_unique<ResBlock3d>(2 * wdt, rng));
  enc_.push_back(
      std::make_unique<nn::Conv>(3, 2 * wdt, 2 * wdt, 3, 2, 1, rng));
  enc_.push_back(std::make_unique<nn::Conv>(3, 2 * wdt, 1, 3, 1, 1, rng));

  dec_.push_back(std::make_unique<nn::Conv>(3, 1, 2 * wdt, 3, 1, 1, rng));
  dec_.push_back(
      std::make_unique<nn::ConvT>(3, 2 * wdt, 2 * wdt, 3, 2, 1, 1, rng));
  for (std::size_t i = 0; i < opt_.res_blocks; ++i)
    dec_.push_back(std::make_unique<ResBlock3d>(2 * wdt, rng));
  dec_.push_back(
      std::make_unique<nn::ConvT>(3, 2 * wdt, wdt, 3, 2, 1, 1, rng));
  for (std::size_t i = 0; i < opt_.res_blocks; ++i)
    dec_.push_back(std::make_unique<ResBlock3d>(wdt, rng));
  dec_.push_back(std::make_unique<nn::Conv>(3, wdt, 1, 3, 1, 1, rng));
  dec_.push_back(std::make_unique<nn::Tanh>());

  const std::size_t lt = opt_.block / 4;
  latent_per_block_ = lt * lt * lt;  // 1 channel on a (block/4)^3 grid
  adam_ = std::make_unique<nn::Adam>(params(), opt_.lr);
}

nn::Tensor AEB::run(std::vector<std::unique_ptr<nn::Layer>>& stack,
                    nn::Tensor x, bool train) {
  for (auto& l : stack) x = l->forward(x, train);
  return x;
}

std::vector<nn::Param*> AEB::params() {
  std::vector<nn::Param*> out;
  for (auto& l : enc_)
    for (nn::Param* p : l->params()) out.push_back(p);
  for (auto& l : dec_)
    for (nn::Param* p : l->params()) out.push_back(p);
  return out;
}

double AEB::train_step(const nn::Tensor& batch) {
  adam_->zero_grad();
  nn::Tensor z = run(enc_, batch, true);
  nn::Tensor y = run(dec_, z, true);
  nn::Tensor g(y.shape());
  const double loss = nn::losses::mse(y, batch, g);
  for (auto it = dec_.rbegin(); it != dec_.rend(); ++it) g = (*it)->backward(g);
  for (auto it = enc_.rbegin(); it != enc_.rend(); ++it) g = (*it)->backward(g);
  adam_->step();
  return loss;
}

TrainReport AEB::train(const std::vector<const Field*>& fields,
                       const TrainOptions& opts) {
  return train_minibatches(
      gather_blocks(fields, 3, opt_.block),
      {1, opt_.block, opt_.block, opt_.block}, opts,
      [&](const nn::Tensor& batch, std::size_t) { return train_step(batch); });
}

std::vector<std::uint8_t> AEB::compress(const Field& f,
                                        const ErrorBound& eb) {
  AESZ_CHECK_ARG(f.dims().rank == 3, "AE-B supports only 3-D data");
  const Dims& d = f.dims();
  auto [lo, hi] = f.min_max();
  const Normalizer nrm{lo, hi};
  const BlockSplit split = make_block_split(d, opt_.block);
  const std::size_t be = split.block_elems();

  ByteWriter w;
  sz::write_header(w, kMagic, d, eb, /*abs_eb=*/0.0);
  w.put(lo);
  w.put(hi);
  w.put_varint(opt_.block);

  // Fixed-ratio latents: raw float32, 1/64 of the input volume.
  std::vector<float> latents(split.total * latent_per_block_);
  const std::size_t batch = 16;
  for (std::size_t start = 0; start < split.total; start += batch) {
    const std::size_t n = std::min(batch, split.total - start);
    nn::Tensor x({n, 1, opt_.block, opt_.block, opt_.block});
    for (std::size_t i = 0; i < n; ++i)
      extract_block(f, split, start + i, nrm, x.data() + i * be);
    nn::Tensor z = run(enc_, x, false);
    AESZ_CHECK(z.numel() == n * latent_per_block_);
    std::copy(z.data(), z.data() + n * latent_per_block_,
              latents.data() + start * latent_per_block_);
  }
  ByteWriter lw;
  lw.put_array<float>(latents);
  w.put_blob(lw.bytes());
  return sz::seal_stream(w.take());
}

Field AEB::decompress_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const sz::StreamHeader h = sz::read_header_or_throw(r, kMagic);
  const Dims d = h.dims;
  AESZ_CHECK_STREAM(d.rank == 3, "AE-B streams are 3-D");
  const auto lo = r.get<float>();
  const auto hi = r.get<float>();
  const std::size_t block = r.get_varint();
  if (block != opt_.block)
    throw Error(ErrCode::kModelMismatch, "AE-B stream block mismatch");
  const auto blob = r.get_blob();
  ByteReader lr(blob);
  const auto latents = lr.get_array<float>();

  const Normalizer nrm{lo, hi};
  const BlockSplit split = make_block_split(d, opt_.block);
  AESZ_CHECK_STREAM(latents.size() == split.total * latent_per_block_,
                    "latent count mismatch");
  Field out(d);
  const std::size_t lt = opt_.block / 4;
  const std::size_t batch = 16;
  for (std::size_t start = 0; start < split.total; start += batch) {
    const std::size_t n = std::min(batch, split.total - start);
    nn::Tensor z({n, 1, lt, lt, lt});
    std::copy(latents.data() + start * latent_per_block_,
              latents.data() + (start + n) * latent_per_block_, z.data());
    nn::Tensor y = run(dec_, z, false);
    for (std::size_t i = 0; i < n; ++i)
      insert_block(y.data() + i * split.block_elems(), split, start + i, nrm,
                   out);
  }
  return out;
}

}  // namespace aesz
