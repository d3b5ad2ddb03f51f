#pragma once

#include <memory>

#include "core/training.hpp"
#include "nn/conv.hpp"
#include "nn/optimizer.hpp"
#include "predictors/compressor.hpp"

namespace aesz {

/// AE-B baseline (Glaws, King & Sprague, Phys. Rev. Fluids 2020): a purely
/// convolutional autoencoder for 3-D turbulence snapshots with a fixed
/// compression ratio of 64x and *no* error bound. The encoder interleaves
/// residual blocks with three stride-2 "compression layers"; the latent is
/// a spatial grid stored as raw float32 (1/64 of the input volume).
///
/// Reproduced at reduced width; error_bounded() returns false, matching
/// the paper's caveat that AE-B's reported speeds cover only the AE
/// prediction process.
class AEB final : public Compressor, public Trainable {
 public:
  static constexpr std::uint32_t kStreamMagic = 0x41454232;  // "AEB2"

  struct Options {
    std::size_t block = 16;  // processing tile (latent tile = block/4)
    std::size_t width = 4;   // base channel count (paper-scale: much wider)
    std::size_t res_blocks = 1;  // residual blocks per stage (12 total in paper)
    float lr = 1e-3f;
  };

  AEB(Options opt, std::uint64_t seed);

  TrainReport train(const std::vector<const Field*>& fields,
                    const TrainOptions& opts) override;

  std::string name() const override { return "AE-B"; }
  bool error_bounded() const override { return false; }
  bool supports_rank(int rank) const override { return rank == 3; }
  /// The bound is ignored: AE-B has a fixed ratio (documented limitation).
  using Compressor::compress;
  std::vector<std::uint8_t> compress(const Field& f,
                                     const ErrorBound& eb) override;

 protected:
  Field decompress_impl(std::span<const std::uint8_t> stream) override;

 private:
  nn::Tensor run(std::vector<std::unique_ptr<nn::Layer>>& stack,
                 nn::Tensor x, bool train);
  std::vector<nn::Param*> params();
  double train_step(const nn::Tensor& batch);

  Options opt_;
  std::vector<std::unique_ptr<nn::Layer>> enc_, dec_;
  std::unique_ptr<nn::Adam> adam_;
  std::size_t latent_per_block_ = 0;
};

/// Residual block used by AE-B: x + Conv(ReLU(Conv(x))). Exposed so the
/// gradcheck tests can validate the skip connection's backward pass.
class ResBlock3d final : public nn::Layer {
 public:
  ResBlock3d(std::size_t channels, Rng& rng);

  nn::Tensor forward(const nn::Tensor& x, bool train) override;
  nn::Tensor backward(const nn::Tensor& gy) override;
  std::vector<nn::Param*> params() override;

 private:
  nn::Conv conv1_, conv2_;
  nn::LeakyReLU relu_;
};

}  // namespace aesz
