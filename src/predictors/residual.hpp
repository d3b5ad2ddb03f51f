#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "data/field.hpp"
#include "predictors/compressor.hpp"
#include "util/expected.hpp"

namespace aesz {

/// The residual chain temporal timesteps and progressive layers share: a
/// residual is coded against a reference rebuilt from DECODED payloads
/// (never the original), so recon = ref + decoded(f − ref) is within the
/// residual's bound of f whatever error the reference carries.

/// f − ref, elementwise: the field a residual timestep or layer codes.
inline Field residual(const Field& f, const Field& ref) {
  Field out(f.dims());
  auto o = out.values();
  auto fv = f.values();
  auto rv = ref.values();
  for (std::size_t i = 0; i < o.size(); ++i) o[i] = fv[i] - rv[i];
  return out;
}

/// Decode `payload` and fold it into `recon`: a base (intra) payload
/// replaces it, a residual one is added to it elementwise. A decode
/// failure passes through; decoded dims other than `dims`, or a residual
/// with no reference to refine, are kCorruptStream.
inline Status fold_decoded(Compressor& codec,
                           std::span<const std::uint8_t> payload,
                           bool is_residual, const Dims& dims, Field& recon) {
  auto dec = codec.decompress(payload);
  if (!dec.ok()) return dec.status();
  if (dec->dims() != dims)
    return Status::error(ErrCode::kCorruptStream, "decoded dims mismatch");
  if (!is_residual) {
    recon = std::move(*dec);
    return {};
  }
  if (recon.dims() != dims)
    return Status::error(ErrCode::kCorruptStream,
                         "residual without a reference field");
  auto out = recon.values();
  auto res = dec->values();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += res[i];
  return {};
}

}  // namespace aesz
