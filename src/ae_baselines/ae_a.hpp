#pragma once

#include <memory>

#include "core/training.hpp"
#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "predictors/compressor.hpp"

namespace aesz {

/// AE-A baseline (Liu et al., IEEE TBD 2021, "High-ratio lossy compression:
/// exploring the autoencoder to compress scientific data"): a fully
/// connected autoencoder over flattened 1-D windows, each layer shrinking by
/// 8x (three stages => overall 512x latent reduction), with the residual
/// correction stream ("the .dvalue files") compressed by an SZ-style
/// quantize + Huffman + LZ pass to restore the error bound.
///
/// Limitations reproduced on purpose: the model sees the data as 1-D
/// (dimension-blind), latents are stored as raw float32, and the windowed
/// FC inference is much slower per byte than AE-SZ's conv blocks — this is
/// what makes AE-A uncompetitive in Fig. 8 / Table VIII.
class AEA final : public Compressor, public Trainable {
 public:
  static constexpr std::uint32_t kStreamMagic = 0x41454131;  // "AEA1"

  struct Options {
    std::size_t window = 1024;  // 1-D window length (paper-scale: 4096)
    std::size_t latent = 2;     // window / 512
    float lr = 1e-3f;
  };

  AEA(Options opt, std::uint64_t seed);

  TrainReport train(const std::vector<const Field*>& fields,
                    const TrainOptions& opts) override;

  std::string name() const override { return "AE-A"; }
  using Compressor::compress;
  std::vector<std::uint8_t> compress(const Field& f,
                                     const ErrorBound& eb) override;

 protected:
  Field decompress_impl(std::span<const std::uint8_t> stream) override;

 private:
  void encode_window(const float* in, float* latent);
  void decode_window(const float* latent, float* out);
  std::vector<nn::Param*> params();
  double train_step(const nn::Tensor& batch);

  Options opt_;
  // Encoder: window -> w/8 -> w/64 -> latent; decoder mirrors.
  std::vector<std::unique_ptr<nn::Layer>> enc_, dec_;
  std::unique_ptr<nn::Adam> adam_;
};

}  // namespace aesz
