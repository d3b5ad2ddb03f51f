#pragma once

#include <cstddef>
#include <type_traits>

#include "data/field.hpp"
#include "util/dims.hpp"

namespace aesz {

/// Blockwise decomposition of a field into fixed-size cubes/squares (the
/// paper's "split the data into small fixed-size blocks", and SZ2.1's
/// predictor-selection blocks). Partial edge blocks keep only their valid
/// region; AE-SZ pads them by edge replication when feeding the network.
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

/// Block origin and valid extent for block id `bid` (raster order); axes
/// the rank lacks get offset 0 and extent 1.
void block_region(const BlockSplit& s, std::size_t bid, std::size_t off[3],
                  std::size_t ext[3]);

/// Calls fn(idx, a, b, c) for every point of the valid region at `off`
/// with extent `ext` in a field of dims `d`, in raster order: `idx` is the
/// field index, (a, b, c) the block-local coordinate (0 on absent axes).
/// Raster order within a block, blocks in raster order, is what keeps the
/// Lorenzo stencils causal in every block walk.
template <typename Fn>
inline void for_valid(const Dims& d, const std::size_t off[3],
                      const std::size_t ext[3], Fn&& fn) {
  const std::size_t n1 = d.rank >= 2 ? d[1] : 1;
  const std::size_t n2 = d.rank >= 3 ? d[2] : 1;
  for (std::size_t a = 0; a < ext[0]; ++a) {
    for (std::size_t b = 0; b < ext[1]; ++b) {
      const std::size_t row = ((off[0] + a) * n1 + off[1] + b) * n2 + off[2];
      for (std::size_t c = 0; c < ext[2]; ++c) fn(row + c, a, b, c);
    }
  }
}

/// Calls fn(std::integral_constant<int, R>{}) for R = `rank` (3 for any
/// rank above 2), so a walk resolves its rank once per call instead of
/// once per point.
template <typename Fn>
inline void with_rank(int rank, Fn&& fn) {
  if (rank == 1)
    fn(std::integral_constant<int, 1>{});
  else if (rank == 2)
    fn(std::integral_constant<int, 2>{});
  else
    fn(std::integral_constant<int, 3>{});
}

/// L1 loss of first-order Lorenzo on the original values of block `bid`
/// alone, neighbors outside the block reading as 0 (paper Algorithm 1,
/// line 7; SZ2.1's selection criterion).
double block_l1_lorenzo(const Field& f, const BlockSplit& s, std::size_t bid);

}  // namespace aesz
