#include "core/aesz.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/latent_codec.hpp"
#include "lossless/lz.hpp"
#include "predictors/blocks.hpp"
#include "predictors/lorenzo.hpp"
#include "predictors/quantizer.hpp"
#include "sz/common.hpp"
#include "util/stage_timer.hpp"

namespace aesz {
namespace {

constexpr std::uint32_t kMagic = AESZ::kStreamMagic;

enum BlockFlag : std::uint8_t { kLorenzo = 0, kMean = 1, kAE = 2 };

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n,
                    std::uint64_t h = 0xCBF29CE484222325ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The one AE-SZ residual traversal (Algorithm 1's quantization step and
/// its inverse), shared by compress and decompress: blocks in raster
/// order, points in raster order within each block. AE blocks predict
/// from `ae_pred`, mean blocks from the next entry of `means`, Lorenzo
/// blocks from already-visited entries of `recon`; `step(idx, pred)` codes
/// or decodes point `idx`. The rank is resolved once per call and the
/// predictor once per block.
template <typename StepFn>
void walk(const BlockSplit& s, const std::vector<std::uint8_t>& flags,
          const Field& ae_pred, const std::vector<float>& means,
          const float* recon, StepFn&& step) {
  const Dims& d = s.field_dims;
  with_rank(s.rank, [&](auto R) {
    std::size_t mi = 0;
    for (std::size_t bid = 0; bid < s.total; ++bid) {
      std::size_t off[3], ext[3];
      block_region(s, bid, off, ext);
      if (flags[bid] == kAE) {
        for_valid(d, off, ext, [&](std::size_t idx, auto...) {
          step(idx, ae_pred.at(idx));
        });
      } else if (flags[bid] == kMean) {
        const float mean = means[mi++];
        for_valid(d, off, ext,
                  [&](std::size_t idx, auto...) { step(idx, mean); });
      } else {
        for_valid(d, off, ext,
                  [&](std::size_t idx, std::size_t a, std::size_t b,
                      std::size_t c) {
                    step(idx, lorenzo::predict<R>(recon, d, off[0] + a,
                                                  off[1] + b, off[2] + c));
                  });
      }
    }
  });
}

}  // namespace

AESZ::AESZ(Options opt, std::uint64_t seed) : opt_(std::move(opt)) {
  nn::AEConfig cfg = opt_.ae;
  trainer_ = std::make_unique<nn::VariantTrainer>(
      cfg, nn::AEVariant::kSWAE, seed, nn::VariantHyper{});
}

TrainReport AESZ::train(const std::vector<const Field*>& fields,
                        const TrainOptions& opts) {
  return train_on_fields(*trainer_, fields, opts);
}

std::uint64_t AESZ::weight_fingerprint() {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const nn::Param* p : trainer_->model().params()) {
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(p->value.data()),
              p->value.numel() * sizeof(float), h);
  }
  return h;
}

void AESZ::save_model(const std::string& path) {
  ByteWriter w;
  w.put(std::uint32_t{0x4D4F444C});  // "MODL"
  trainer_->model().save(w);
  std::ofstream out(path, std::ios::binary);
  AESZ_CHECK_MSG(out.good(), "cannot open " + path);
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.size()));
}

void AESZ::load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AESZ_CHECK_MSG(in.good(), "cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  ByteReader r(bytes);
  AESZ_CHECK_MSG(r.get<std::uint32_t>() == 0x4D4F444C, "not a model file");
  trainer_->model().load(r);
}

bool AESZ::supports_rank(int rank) const {
  return rank == trainer_->model().config().rank;
}

std::vector<std::uint8_t> AESZ::compress(const Field& f,
                                         const ErrorBound& eb) {
  return std::move(compress_batch({&f}, {eb}).front());
}

std::vector<std::vector<std::uint8_t>> AESZ::compress_batch(
    const std::vector<const Field*>& fields,
    const std::vector<ErrorBound>& ebs) {
  AESZ_CHECK_ARG(fields.size() == ebs.size(),
                 "compress_batch: fields/bounds size mismatch");
  if (fields.empty()) return {};
  const nn::AEConfig& cfg = trainer_->model().config();
  const std::size_t ld = cfg.latent;

  // Per-field bound resolution and block geometry; blocks of ALL fields
  // are pooled into one global list so the encode/decode passes below run
  // at the full inference batch size even when each field alone is small
  // (the cross-request batching case). Per-block network outputs are
  // bitwise independent of batch composition, so this pooling cannot
  // change any stream byte relative to a solo compress().
  struct Plan {
    const Field* f = nullptr;
    double abs_eb = 0.0;
    double rel_eb = 0.0;
    float lo = 0.0f, hi = 0.0f;
    Normalizer nrm{0.0f, 0.0f};
    BlockSplit split{};
    std::size_t first_block = 0;  // offset into the pooled block list
    double latent_abs_eb = 0.0;
  };
  std::vector<Plan> plans(fields.size());
  std::size_t total_blocks = 0;
  for (std::size_t pi = 0; pi < fields.size(); ++pi) {
    const Field& f = *fields[pi];
    AESZ_CHECK_ARG(f.dims().rank == cfg.rank,
                   "field rank does not match the trained AE");
    Plan& p = plans[pi];
    p.f = &f;
    const double range = f.value_range();
    p.abs_eb = sz::resolve_abs_eb(f, ebs[pi], "AE-SZ");
    // The paper's latent bound scales with the *relative* bound ε; for Abs
    // and PSNR requests use the equivalent relative bound abs_eb / range.
    p.rel_eb = range > 0 ? p.abs_eb / range : p.abs_eb;
    auto [lo, hi] = f.min_max();
    p.lo = lo;
    p.hi = hi;
    p.nrm = Normalizer{lo, hi};
    p.split = make_block_split(f.dims(), cfg.block);
    p.first_block = total_blocks;
    total_blocks += p.split.total;
  }
  const std::size_t be = plans.front().split.block_elems();

  // ---- Step 1+2a: batched AE encoding of every block of every field.
  std::vector<float> latents(total_blocks * ld);
  std::vector<std::size_t> in_shape{0, 1};
  for (int i = 0; i < cfg.rank; ++i) in_shape.push_back(cfg.block);
  std::size_t fi = 0;  // field owning the block being pulled (monotonic)
  for (std::size_t start = 0; start < total_blocks; start += opt_.batch) {
    const std::size_t n = std::min(opt_.batch, total_blocks - start);
    in_shape[0] = n;
    nn::Tensor batch(in_shape);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t g = start + i;
      while (g >= plans[fi].first_block + plans[fi].split.total) ++fi;
      const Plan& p = plans[fi];
      extract_block(*p.f, p.split, g - p.first_block, p.nrm,
                    batch.data() + i * be);
    }
    nn::Tensor z = trainer_->encode_latent(batch);
    std::copy(z.data(), z.data() + n * ld, latents.data() + start * ld);
  }

  // Latent error bound: factor * e, value-range based on each field's OWN
  // latents (paper §IV-E) — pooling must not couple fields' bounds.
  std::vector<float> zd(latents.size());
  for (Plan& p : plans) {
    const float* pl = latents.data() + p.first_block * ld;
    const std::size_t cnt = p.split.total * ld;
    float llo = cnt == 0 ? 0.0f : pl[0], lhi = llo;
    for (std::size_t i = 0; i < cnt; ++i) {
      llo = std::min(llo, pl[i]);
      lhi = std::max(lhi, pl[i]);
    }
    p.latent_abs_eb =
        std::max(opt_.latent_eb_factor * p.rel_eb *
                     (static_cast<double>(lhi) - static_cast<double>(llo)),
                 1e-12);
    // ---- Step 2b (quantize): what the decompressor will see.
    float* pzd = zd.data() + p.first_block * ld;
    for (std::size_t i = 0; i < cnt; ++i)
      pzd[i] = latent_codec::quantize_value(pl[i], p.latent_abs_eb);
  }

  // ---- Step 2b (decode): AE prediction for every block, again pooled
  // across fields.
  std::vector<Field> ae_preds;
  ae_preds.reserve(plans.size());
  for (const Plan& p : plans) ae_preds.emplace_back(p.f->dims());
  fi = 0;
  for (std::size_t start = 0; start < total_blocks; start += opt_.batch) {
    const std::size_t n = std::min(opt_.batch, total_blocks - start);
    nn::Tensor zt({n, ld});
    std::copy(zd.data() + start * ld, zd.data() + (start + n) * ld,
              zt.data());
    nn::Tensor rec = trainer_->model().decode(zt, /*train=*/false);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t g = start + i;
      while (g >= plans[fi].first_block + plans[fi].split.total) ++fi;
      const Plan& p = plans[fi];
      insert_block(rec.data() + i * be, p.split, g - p.first_block, p.nrm,
                   ae_preds[fi]);
    }
  }

  // Steps 3-5 are per-field (selection, residual quantization, assembly).
  // The model cannot change within one call, so every stream in the batch
  // shares one weight fingerprint; computing it per field would re-hash
  // all parameters and dominate small-field compression time.
  const std::uint64_t fp = weight_fingerprint();
  std::vector<std::vector<std::uint8_t>> out(plans.size());
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    const Plan& p = plans[pi];
    const Field& f = *p.f;
    const Dims& d = f.dims();
    const BlockSplit& split = p.split;
    const Field& ae_pred = ae_preds[pi];
    const double abs_eb = p.abs_eb;
    const float lo = p.lo, hi = p.hi;

    stats_ = Stats{};
    stats_.blocks_total = split.total;

  // ---- Step 3: per-block predictor selection (Algorithm 1 lines 3-13).
  std::vector<std::uint8_t> flags(split.total, kLorenzo);
  std::vector<float> means;
  std::vector<float> sel_latents;  // latents of AE-selected blocks only
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(split.total);
       ++b) {
    const auto bid = static_cast<std::size_t>(b);
    std::size_t off[3], ext[3];
    block_region(split, bid, off, ext);
    const double loss_ae = block_l1_vs(f, split, bid, ae_pred);
    // Lorenzo's online prediction reads *reconstructed* neighbors, so its
    // realized error carries quantization-feedback noise that grows with
    // the bound (E|e_a + e_b - e_c| ~ eb for the 2-D stencil). The
    // original-data L1 of Algorithm 1 is corrected by that term; this is
    // what makes the AE take over at medium bounds and hand back to
    // Lorenzo at tight bounds (paper Fig. 10 discussion).
    const std::size_t npts = ext[0] * ext[1] * ext[2];
    const double loss_lor = block_l1_lorenzo(f, split, bid) +
                            abs_eb * static_cast<double>(npts);
    const float mean = block_mean(f, split, bid);
    const double loss_mean = block_l1_const(f, split, bid, mean);

    std::uint8_t flag;
    if (opt_.policy == Policy::kAEOnly) {
      flag = kAE;
    } else {
      // "Lorenzo" internally selects classic vs mean (§IV-A).
      const double loss_lorenzo_best = std::min(loss_lor, loss_mean);
      const std::uint8_t lor_flag =
          loss_mean < loss_lor ? kMean : kLorenzo;
      if (opt_.policy == Policy::kLorenzoOnly || loss_lorenzo_best <= loss_ae)
        flag = lor_flag;
      else
        flag = kAE;
    }
    flags[bid] = flag;
  }
  for (std::size_t bid = 0; bid < split.total; ++bid) {
    if (flags[bid] == kAE) {
      ++stats_.blocks_ae;
      sel_latents.insert(
          sel_latents.end(),
          latents.begin() + (p.first_block + bid) * ld,
          latents.begin() + (p.first_block + bid + 1) * ld);
    } else if (flags[bid] == kMean) {
      ++stats_.blocks_mean;
      means.push_back(block_mean(f, split, bid));
    } else {
      ++stats_.blocks_lorenzo;
    }
  }

  // ---- Step 4: residual quantization (blockwise raster; Lorenzo reads
  // reconstructed neighbors, which block-raster order keeps causal).
  prof::StageScope quantize_stage(prof::Stage::kQuantize);
  std::vector<float> recon(d.total());
  QuantEncoder enc(abs_eb, d.total());
  walk(split, flags, ae_pred, means, recon.data(),
       [&](std::size_t idx, float pred) {
         recon[idx] = enc.code(f.at(idx), pred);
       });
  stats_.unpredictable = enc.unpredictable();
  quantize_stage.stop();

  // ---- Step 5: stream assembly.
  ByteWriter w;
  sz::write_header(w, kMagic, d, ebs[pi], abs_eb);
  w.put(lo);
  w.put(hi);
  w.put(fp);
  w.put_varint(cfg.block);
  w.put_varint(ld);
  {
    // 2-bit flags, packed.
    std::vector<std::uint8_t> packed((split.total + 3) / 4, 0);
    for (std::size_t i = 0; i < split.total; ++i)
      packed[i >> 2] |= static_cast<std::uint8_t>(flags[i] << ((i & 3) * 2));
    w.put_blob(lz::compress(packed));
  }
  {
    const auto latent_blob =
        latent_codec::encode(sel_latents, p.latent_abs_eb);
    stats_.latent_stream_bytes = latent_blob.size();
    w.put_blob(latent_blob);
  }
  {
    ByteWriter mw;
    mw.put_array<float>(means);
    w.put_blob(lz::compress(mw.bytes()));
  }
  stats_.code_stream_bytes = enc.write(w);
  out[pi] = sz::seal_stream(w.take());
  }
  return out;
}

Field AESZ::decompress_impl(std::span<const std::uint8_t> stream) {
  const nn::AEConfig& cfg = trainer_->model().config();
  ByteReader r(stream);
  const sz::StreamHeader h = sz::read_header_or_throw(r, kMagic);
  const Dims d = h.dims;
  const double abs_eb = h.abs_eb;
  if (d.rank != cfg.rank)
    throw Error(ErrCode::kModelMismatch, "stream rank != model rank");
  const auto lo = r.get<float>();
  const auto hi = r.get<float>();
  const auto fp = r.get<std::uint64_t>();
  if (fp != weight_fingerprint())
    throw Error(ErrCode::kModelMismatch,
                "stream was compressed with different AE weights");
  const std::size_t block = r.get_varint();
  const std::size_t ld = r.get_varint();
  if (block != cfg.block || ld != cfg.latent)
    throw Error(ErrCode::kModelMismatch, "stream AE config != model config");
  const Normalizer nrm{lo, hi};
  const BlockSplit split = make_block_split(d, block);
  const std::size_t be = split.block_elems();

  // Flags.
  const auto packed = lz::decompress(r.get_blob());
  AESZ_CHECK_STREAM(packed.size() == (split.total + 3) / 4, "bad flag blob");
  std::vector<std::uint8_t> flags(split.total);
  for (std::size_t i = 0; i < split.total; ++i) {
    flags[i] = (packed[i >> 2] >> ((i & 3) * 2)) & 3;
    AESZ_CHECK_STREAM(flags[i] <= kAE, "bad block flag");
  }

  // Latents -> AE predictions for AE-flagged blocks.
  const auto zd = latent_codec::decode(r.get_blob());
  std::vector<std::size_t> ae_blocks;
  for (std::size_t i = 0; i < split.total; ++i)
    if (flags[i] == kAE) ae_blocks.push_back(i);
  AESZ_CHECK_STREAM(zd.size() == ae_blocks.size() * ld,
                 "latent count mismatch");

  Field ae_pred(d);
  for (std::size_t start = 0; start < ae_blocks.size();
       start += opt_.batch) {
    const std::size_t n = std::min(opt_.batch, ae_blocks.size() - start);
    nn::Tensor zt({n, ld});
    std::copy(zd.data() + start * ld, zd.data() + (start + n) * ld,
              zt.data());
    nn::Tensor rec = trainer_->model().decode(zt, /*train=*/false);
    for (std::size_t i = 0; i < n; ++i)
      insert_block(rec.data() + i * be, split, ae_blocks[start + i], nrm,
                   ae_pred);
  }

  const auto mean_bytes = lz::decompress(r.get_blob());
  ByteReader mr(mean_bytes);
  const auto means = mr.get_array<float>();
  QuantDecoder dec(r, abs_eb, d.total());
  const auto mean_blocks = static_cast<std::size_t>(
      std::count(flags.begin(), flags.end(), std::uint8_t{kMean}));
  AESZ_CHECK_STREAM(means.size() == mean_blocks && mr.eof(),
                    "mean count != mean-block count");

  // Residual reconstruction, mirroring the compression traversal.
  prof::StageScope quantize_stage(prof::Stage::kQuantize);
  Field out(d);
  float* recon = out.data();
  walk(split, flags, ae_pred, means, recon,
       [&](std::size_t idx, float pred) { recon[idx] = dec.next(pred); });
  return out;
}

}  // namespace aesz
