#pragma once

#include <cstddef>
#include <span>

#include "data/field.hpp"
#include "util/dims.hpp"

namespace aesz {

/// Blockwise decomposition of a field into fixed-size cubes/squares (the
/// paper's "split the data into small fixed-size blocks"). Partial edge
/// blocks are padded by edge replication when fed to the network; only the
/// valid region participates in losses and residual coding.
struct BlockSplit {
  Dims field_dims;
  std::size_t bs = 0;      // block edge
  int rank = 0;
  std::size_t nb[3] = {1, 1, 1};
  std::size_t total = 0;   // number of blocks

  std::size_t block_elems() const {
    std::size_t n = 1;
    for (int i = 0; i < rank; ++i) n *= bs;
    return n;
  }
};

BlockSplit make_block_split(const Dims& d, std::size_t bs);

/// Block origin and valid extent for block id `bid` (raster order).
void block_region(const BlockSplit& s, std::size_t bid, std::size_t off[3],
                  std::size_t ext[3]);

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

/// L1 loss of block-local first-order Lorenzo on original values
/// (selection criterion, Algorithm 1 line 7).
double block_l1_lorenzo(const Field& f, const BlockSplit& s, std::size_t bid);

}  // namespace aesz
