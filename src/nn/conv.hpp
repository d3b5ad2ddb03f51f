#pragma once

#include "nn/layer.hpp"

namespace aesz::nn {

/// Convolution over rank-2 (NCHW) or rank-3 (NCDHW) inputs, cubic kernel,
/// zero padding. Weight [out_c, in_c, k^rank]; He initialization.
class Conv final : public Layer {
 public:
  Conv(int rank, std::size_t in_c, std::size_t out_c, std::size_t k,
       std::size_t stride, std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }

  std::size_t out_size(std::size_t in) const {
    return (in + 2 * pad_ - k_) / stride_ + 1;
  }

 private:
  int rank_;
  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Param w_, b_;
  Tensor x_cache_;
};

/// Transposed convolution (stride-2 upsampling in the decoder), rank 2 or
/// 3. Weight [in_c, out_c, k^rank]; out = (in-1)*stride - 2*pad + k +
/// out_pad.
class ConvT final : public Layer {
 public:
  ConvT(int rank, std::size_t in_c, std::size_t out_c, std::size_t k,
        std::size_t stride, std::size_t pad, std::size_t out_pad, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }

  std::size_t out_size(std::size_t in) const {
    return (in - 1) * stride_ + k_ + out_pad_ - 2 * pad_;
  }

 private:
  int rank_;
  std::size_t in_c_, out_c_, k_, stride_, pad_, out_pad_;
  Param w_, b_;
  Tensor x_cache_;
};

}  // namespace aesz::nn
