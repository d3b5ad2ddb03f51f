#pragma once

#include <cstddef>

#include "data/field.hpp"
#include "predictors/blocks.hpp"

namespace aesz {

/// The AE-facing side of the block split (`predictors/blocks.hpp`):
/// normalization, network-block extract/insert and the selection losses.

/// Linear [-1,1] normalization bound to a field's min/max (the paper's
/// input normalization "based on the global maximum and minimum of data").
/// Degenerate ranges (hi <= lo — e.g. an exactly constant chunk handed to
/// a codec by the parallel pipeline) collapse consistently: norm() maps
/// every value to 0 and denorm() maps everything back to `lo`, so
/// denorm(norm(v)) reproduces a constant field exactly instead of
/// drifting to the midpoint of an inverted range.
struct Normalizer {
  float lo = 0.0f;
  float hi = 1.0f;

  float norm(float v) const {
    const float r = hi - lo;
    return r > 0 ? 2.0f * (v - lo) / r - 1.0f : 0.0f;
  }
  float denorm(float v) const {
    const float r = hi - lo;
    return r > 0 ? lo + (v + 1.0f) * 0.5f * r : lo;
  }
};

/// Extract block `bid` into `out` (bs^rank floats), normalized, partial
/// blocks padded by edge replication.
void extract_block(const Field& f, const BlockSplit& s, std::size_t bid,
                   const Normalizer& nrm, float* out);

/// Inverse of extract_block: denormalize the valid region of block `bid`
/// (bs^rank floats in `in`) into `out`; the padding is dropped.
void insert_block(const float* in, const BlockSplit& s, std::size_t bid,
                  const Normalizer& nrm, Field& out);

/// L1 loss between the valid region of block `bid` in `f` and the same
/// region of the full-field prediction `pred`.
double block_l1_vs(const Field& f, const BlockSplit& s, std::size_t bid,
                   const Field& pred);

/// Mean of the valid region of block `bid`.
float block_mean(const Field& f, const BlockSplit& s, std::size_t bid);

/// L1 loss of predicting the valid region by a constant.
double block_l1_const(const Field& f, const BlockSplit& s, std::size_t bid,
                      float c);

}  // namespace aesz
