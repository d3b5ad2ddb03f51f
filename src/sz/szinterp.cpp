#include "sz/szinterp.hpp"

#include <cmath>

#include "lossless/lz.hpp"
#include "predictors/quantizer.hpp"
#include "sz/common.hpp"
#include "util/stage_timer.hpp"

namespace aesz {
namespace {

constexpr std::uint32_t kMagic = SZInterp::kStreamMagic;

/// Spline prediction of the point at 1-D coordinate `x` (an odd multiple of
/// `s`) from reconstructed values at spacing `2s` along one axis. `base` is
/// the linear index of the point, `L` the linear stride of the axis, `n`
/// the axis extent.
inline float axis_predict(const float* buf, std::size_t base, std::size_t L,
                          std::size_t x, std::size_t s, std::size_t n,
                          bool cubic) {
  const bool has_hi = x + s < n;
  if (!has_hi) return buf[base - L * s];  // copy of the last known point
  const float lo = buf[base - L * s];
  const float hi = buf[base + L * s];
  if (cubic && x >= 3 * s && x + 3 * s < n) {
    const float lo2 = buf[base - L * 3 * s];
    const float hi2 = buf[base + L * 3 * s];
    return (-lo2 + 9.0f * lo + 9.0f * hi - hi2) * (1.0f / 16.0f);
  }
  return 0.5f * (lo + hi);
}

/// Shared refinement traversal. Calls anchor(idx) for every coarsest-grid
/// point, then point(idx, pred) for every refined point, in an order that
/// is identical for compression and decompression (prediction reads only
/// already-visited entries of `buf`).
template <typename AnchorFn, typename PointFn>
void walk(const Dims& d, std::size_t S, bool cubic, const float* buf,
          AnchorFn&& anchor, PointFn&& point) {
  const int rank = d.rank;
  const std::size_t n0 = d[0];
  const std::size_t n1 = rank >= 2 ? d[1] : 1;
  const std::size_t n2 = rank >= 3 ? d[2] : 1;
  // Linear strides per axis (row-major, last axis contiguous).
  const std::size_t L0 = rank == 1 ? 1 : (rank == 2 ? n1 : n1 * n2);
  const std::size_t L1 = rank == 3 ? n2 : 1;
  const std::size_t L2 = 1;

  for (std::size_t i = 0; i < n0; i += S)
    for (std::size_t j = 0; j < n1; j += S)
      for (std::size_t k = 0; k < n2; k += S)
        anchor(i * L0 + j * L1 + k * L2);

  for (std::size_t s = S; s >= 1; s /= 2) {
    // Axis 0: coord0 at odd multiples of s; others on the 2s grid.
    for (std::size_t i = s; i < n0; i += 2 * s) {
      for (std::size_t j = 0; j < n1; j += 2 * s) {
        for (std::size_t k = 0; k < n2; k += 2 * s) {
          const std::size_t idx = i * L0 + j * L1 + k * L2;
          point(idx, axis_predict(buf, idx, L0, i, s, n0, cubic));
        }
      }
    }
    if (rank >= 2) {
      // Axis 1: coord0 already refined to the s grid.
      for (std::size_t i = 0; i < n0; i += s) {
        for (std::size_t j = s; j < n1; j += 2 * s) {
          for (std::size_t k = 0; k < n2; k += 2 * s) {
            const std::size_t idx = i * L0 + j * L1 + k * L2;
            point(idx, axis_predict(buf, idx, L1, j, s, n1, cubic));
          }
        }
      }
    }
    if (rank >= 3) {
      for (std::size_t i = 0; i < n0; i += s) {
        for (std::size_t j = 0; j < n1; j += s) {
          for (std::size_t k = s; k < n2; k += 2 * s) {
            const std::size_t idx = i * L0 + j * L1 + k * L2;
            point(idx, axis_predict(buf, idx, L2, k, s, n2, cubic));
          }
        }
      }
    }
    if (s == 1) break;
  }
}

/// Number of point() calls walk() makes: at each level s, the odd
/// multiples of s along one axis times the coarser grids of the others.
std::size_t refined_points(const Dims& d, std::size_t S) {
  const auto on = [](std::size_t n, std::size_t m) { return (n + m - 1) / m; };
  const std::size_t n0 = d[0];
  const std::size_t n1 = d.rank >= 2 ? d[1] : 1;
  const std::size_t n2 = d.rank >= 3 ? d[2] : 1;
  std::size_t total = 0;
  for (std::size_t s = S; s >= 1; s /= 2) {
    const std::size_t t = 2 * s;
    total += (on(n0, s) - on(n0, t)) * on(n1, t) * on(n2, t);
    if (d.rank >= 2) total += on(n0, s) * (on(n1, s) - on(n1, t)) * on(n2, t);
    if (d.rank >= 3) total += on(n0, s) * on(n1, s) * (on(n2, s) - on(n2, t));
  }
  return total;
}

}  // namespace

std::vector<std::uint8_t> SZInterp::compress(const Field& f,
                                             const ErrorBound& eb) {
  const Dims& d = f.dims();
  const double abs_eb = sz::resolve_abs_eb(f, eb, "SZinterp");
  // Keep the stride a power of two no larger than the largest dimension.
  std::size_t S = 1;
  while (S * 2 <= opt_.max_stride && S * 2 < d[0]) S *= 2;

  ByteWriter w;
  sz::write_header(w, kMagic, d, eb, abs_eb);
  w.put_varint(S);
  w.put(static_cast<std::uint8_t>(opt_.cubic ? 1 : 0));

  const float* src = f.data();
  std::vector<float> recon(d.total());
  QuantEncoder enc(abs_eb, d.total());
  std::vector<float> anchors;

  prof::StageScope predict_stage(prof::Stage::kPredict);
  walk(
      d, S, opt_.cubic, recon.data(),
      [&](std::size_t idx) {
        anchors.push_back(src[idx]);
        recon[idx] = src[idx];
      },
      [&](std::size_t idx, float pred) {
        recon[idx] = enc.code(src[idx], pred);
      });

  predict_stage.stop();
  {
    ByteWriter aw;
    aw.put_array<float>(anchors);
    w.put_blob(lz::compress(aw.bytes()));
  }
  enc.write(w);
  return sz::seal_stream(w.take());
}

Field SZInterp::decompress_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const sz::StreamHeader h = sz::read_header_or_throw(r, kMagic);
  const Dims d = h.dims;
  const double abs_eb = h.abs_eb;
  const std::size_t S = r.get_varint();
  // S = 0 would make the anchor loops non-terminating; a corrupt stride is
  // a stream error, not a crash.
  AESZ_CHECK_STREAM(S >= 1 && S <= (std::size_t{1} << 20) &&
                        (S & (S - 1)) == 0,
                    "bad refinement stride");
  const bool cubic = r.get<std::uint8_t>() != 0;

  const auto anchor_bytes = lz::decompress(r.get_blob());
  ByteReader ar(anchor_bytes);
  const auto anchors = ar.get_array<float>();
  QuantDecoder dec(r, abs_eb, refined_points(d, S));

  prof::StageScope predict_stage(prof::Stage::kPredict);
  Field out(d);
  float* recon = out.data();
  std::size_t ai = 0;

  walk(
      d, S, cubic, recon,
      [&](std::size_t idx) {
        AESZ_CHECK_STREAM(ai < anchors.size(), "anchor underflow");
        recon[idx] = anchors[ai++];
      },
      [&](std::size_t idx, float pred) { recon[idx] = dec.next(pred); });
  AESZ_CHECK_STREAM(ai == anchors.size() && ar.eof(),
                    "anchor count != anchor-point count");
  return out;
}

}  // namespace aesz
