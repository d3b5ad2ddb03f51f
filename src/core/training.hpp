#pragma once

#include <functional>
#include <vector>

#include "core/blocks.hpp"
#include "nn/variants.hpp"

namespace aesz {

/// Offline-training options for the paper's protocol: the network is trained
/// on snapshots from earlier timesteps (or a different simulation run) and
/// then reused to compress unseen snapshots of the same application.
struct TrainOptions {
  std::size_t epochs = 30;
  std::size_t batch = 32;
  float lr = 1e-3f;
  std::uint64_t seed = 7;
  nn::VariantHyper hyper{};
  bool verbose = false;
  /// Cap on the number of training blocks (subsamples uniformly when the
  /// split yields more) — keeps CPU training inside bench budgets.
  std::size_t max_blocks = 4096;
};

struct TrainReport {
  std::vector<double> epoch_loss;
  double seconds = 0.0;
  std::size_t samples = 0;
};

/// Mixin interface of the learned codecs (AE-SZ, AE-A, AE-B). Lets
/// registry-driven callers train whatever supports it without knowing the
/// concrete type: `if (auto* t = dynamic_cast<Trainable*>(codec.get())) ...`.
class Trainable {
 public:
  virtual ~Trainable() = default;
  virtual TrainReport train(const std::vector<const Field*>& fields,
                            const TrainOptions& opts) = 0;
};

/// The minibatch loop every learned codec trains with. Seeds an Rng with
/// opts.seed, subsamples `samples` to opts.max_blocks (Fisher–Yates
/// prefix), reshuffles every epoch, and hands each minibatch — an
/// (n, shape...) tensor — to `step`, which returns its loss. `on_epoch`,
/// if set, sees each epoch's mean loss.
TrainReport train_minibatches(
    std::vector<std::vector<float>> samples,
    const std::vector<std::size_t>& shape, const TrainOptions& opts,
    const std::function<double(const nn::Tensor& batch, std::size_t epoch)>&
        step,
    const std::function<void(std::size_t epoch, double loss)>& on_epoch = {});

/// Every block of every field, normalized by its field's min/max (as the
/// compressor does online); each sample is bs^rank floats.
std::vector<std::vector<float>> gather_blocks(
    const std::vector<const Field*>& fields, int rank, std::size_t bs);

/// Split each training field into normalized blocks (per-field min/max, as
/// the compressor will do online) and run minibatch training.
TrainReport train_on_fields(nn::VariantTrainer& trainer,
                            const std::vector<const Field*>& fields,
                            const TrainOptions& opts);

/// Assemble normalized blocks of one field as a (N, 1, extent...) tensor
/// batch list for evaluation harnesses.
std::vector<nn::Tensor> make_eval_batches(const Field& f,
                                          const nn::AEConfig& cfg,
                                          std::size_t batch);

/// Average prediction PSNR of a trained model over a test field — the
/// Table I / Table II metric (reconstruction only, no quantization).
double prediction_psnr(nn::VariantTrainer& trainer, const Field& test);

}  // namespace aesz
