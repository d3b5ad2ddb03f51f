#include "core/training.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "metrics/metrics.hpp"
#include "util/timer.hpp"

namespace aesz {

TrainReport train_minibatches(
    std::vector<std::vector<float>> samples,
    const std::vector<std::size_t>& shape, const TrainOptions& opts,
    const std::function<double(const nn::Tensor&, std::size_t)>& step,
    const std::function<void(std::size_t, double)>& on_epoch) {
  Rng rng(opts.seed);
  // Uniform subsample if over budget (Fisher-Yates prefix).
  if (samples.size() > opts.max_blocks) {
    for (std::size_t i = 0; i < opts.max_blocks; ++i)
      std::swap(samples[i], samples[i + rng.below(samples.size() - i)]);
    samples.resize(opts.max_blocks);
  }
  AESZ_CHECK_MSG(!samples.empty(), "no training samples");

  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::size_t> batch_shape{0};
  batch_shape.insert(batch_shape.end(), shape.begin(), shape.end());
  const std::size_t se = samples[0].size();

  TrainReport report;
  report.samples = samples.size();
  Timer timer;
  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    double epoch_loss = 0.0;
    std::size_t nb = 0;
    for (std::size_t start = 0; start < order.size(); start += opts.batch) {
      const std::size_t n = std::min(opts.batch, order.size() - start);
      batch_shape[0] = n;
      nn::Tensor batch(batch_shape);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& s = samples[order[start + i]];
        std::copy(s.begin(), s.end(), batch.data() + i * se);
      }
      epoch_loss += step(batch, epoch);
      ++nb;
    }
    report.epoch_loss.push_back(epoch_loss / static_cast<double>(nb));
    if (on_epoch) on_epoch(epoch, report.epoch_loss.back());
  }
  report.seconds = timer.seconds();
  return report;
}

std::vector<std::vector<float>> gather_blocks(
    const std::vector<const Field*>& fields, int rank, std::size_t bs) {
  std::vector<std::vector<float>> samples;
  for (const Field* f : fields) {
    AESZ_CHECK_MSG(f->dims().rank == rank,
                   "training field rank does not match the model");
    const BlockSplit s = make_block_split(f->dims(), bs);
    auto [lo, hi] = f->min_max();
    const Normalizer nrm{lo, hi};
    for (std::size_t bid = 0; bid < s.total; ++bid) {
      samples.emplace_back(s.block_elems());
      extract_block(*f, s, bid, nrm, samples.back().data());
    }
  }
  return samples;
}

TrainReport train_on_fields(nn::VariantTrainer& trainer,
                            const std::vector<const Field*>& fields,
                            const TrainOptions& opts) {
  const nn::AEConfig& cfg = trainer.model().config();
  std::vector<std::size_t> shape{1};
  for (int i = 0; i < cfg.rank; ++i) shape.push_back(cfg.block);
  return train_minibatches(
      gather_blocks(fields, cfg.rank, cfg.block), shape, opts,
      [&](const nn::Tensor& batch, std::size_t epoch) {
        // Linear learning-rate decay to 10%: recovers most of the quality
        // a full cosine schedule would at this training scale.
        trainer.set_lr(
            opts.lr *
            static_cast<float>(1.0 - 0.9 * static_cast<double>(epoch) /
                                         std::max<std::size_t>(
                                             opts.epochs - 1, 1)));
        return trainer.train_step(batch);
      },
      [&](std::size_t epoch, double loss) {
        if (!opts.verbose) return;
        std::printf("  [%s] epoch %zu/%zu loss %.6f\n",
                    nn::variant_name(trainer.variant()).c_str(), epoch + 1,
                    opts.epochs, loss);
        std::fflush(stdout);
      });
}

std::vector<nn::Tensor> make_eval_batches(const Field& f,
                                          const nn::AEConfig& cfg,
                                          std::size_t batch) {
  const BlockSplit s = make_block_split(f.dims(), cfg.block);
  auto [lo, hi] = f.min_max();
  const Normalizer nrm{lo, hi};
  std::vector<nn::Tensor> out;
  std::vector<std::size_t> in_shape{0, 1};
  for (int i = 0; i < cfg.rank; ++i) in_shape.push_back(cfg.block);
  for (std::size_t start = 0; start < s.total; start += batch) {
    const std::size_t n = std::min(batch, s.total - start);
    in_shape[0] = n;
    nn::Tensor t(in_shape);
    for (std::size_t i = 0; i < n; ++i)
      extract_block(f, s, start + i, nrm, t.data() + i * s.block_elems());
    out.push_back(std::move(t));
  }
  return out;
}

double prediction_psnr(nn::VariantTrainer& trainer, const Field& test) {
  const nn::AEConfig& cfg = trainer.model().config();
  const BlockSplit s = make_block_split(test.dims(), cfg.block);
  auto [lo, hi] = test.min_max();
  const Normalizer nrm{lo, hi};

  // Reconstruct every block, de-normalize, and assemble the predicted field
  // (valid regions only) to compute a field-level PSNR.
  Field pred(test.dims());
  const std::size_t be = s.block_elems();
  std::vector<std::size_t> in_shape{0, 1};
  for (int i = 0; i < cfg.rank; ++i) in_shape.push_back(cfg.block);
  const std::size_t batch = 64;
  for (std::size_t start = 0; start < s.total; start += batch) {
    const std::size_t n = std::min(batch, s.total - start);
    in_shape[0] = n;
    nn::Tensor t(in_shape);
    for (std::size_t i = 0; i < n; ++i)
      extract_block(test, s, start + i, nrm, t.data() + i * be);
    nn::Tensor rec = trainer.reconstruct(t);
    for (std::size_t i = 0; i < n; ++i)
      insert_block(rec.data() + i * be, s, start + i, nrm, pred);
  }
  return metrics::psnr(test.values(), pred.values());
}

}  // namespace aesz
