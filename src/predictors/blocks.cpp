#include "predictors/blocks.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "predictors/lorenzo.hpp"

namespace aesz {

BlockSplit make_block_split(const Dims& d, std::size_t bs) {
  // Degenerate-input guards (surfaced by the chunked pipeline, which can
  // hand codecs arbitrarily thin slabs): bs == 0 would divide by zero in
  // num_blocks, and a zero extent would underflow the `ext[i] - 1`
  // edge-replication arithmetic in extract_block.
  AESZ_CHECK_ARG(bs > 0, "block size must be positive");
  AESZ_CHECK_ARG(d.rank >= 1 && d.rank <= 3, "field rank must be 1, 2, or 3");
  for (int i = 0; i < d.rank; ++i)
    AESZ_CHECK_ARG(d[i] > 0, "field has a zero extent along axis " +
                                 std::to_string(i));
  BlockSplit s;
  s.field_dims = d;
  s.bs = bs;
  s.rank = d.rank;
  s.total = 1;
  for (int i = 0; i < d.rank; ++i) {
    s.nb[i] = num_blocks(d[i], bs);
    s.total *= s.nb[i];
  }
  return s;
}

void block_region(const BlockSplit& s, std::size_t bid, std::size_t off[3],
                  std::size_t ext[3]) {
  std::size_t B[3] = {0, 0, 0};
  if (s.rank == 1) {
    B[0] = bid;
  } else if (s.rank == 2) {
    B[0] = bid / s.nb[1];
    B[1] = bid % s.nb[1];
  } else {
    B[0] = bid / (s.nb[1] * s.nb[2]);
    B[1] = (bid / s.nb[2]) % s.nb[1];
    B[2] = bid % s.nb[2];
  }
  for (int i = 0; i < 3; ++i) {
    off[i] = i < s.rank ? B[i] * s.bs : 0;
    ext[i] = i < s.rank ? std::min(s.bs, s.field_dims[i] - off[i]) : 1;
  }
}

double block_l1_lorenzo(const Field& f, const BlockSplit& s,
                        std::size_t bid) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  // The stencil runs on block-local coordinates from the block origin `o`,
  // so every neighbor outside the block reads as 0.
  const Dims& d = f.dims();
  const std::size_t n1 = d.rank >= 2 ? d[1] : 1, n2 = d.rank >= 3 ? d[2] : 1;
  const float* o = f.data() + (off[0] * n1 + off[1]) * n2 + off[2];
  const std::size_t origin[3] = {0, 0, 0};
  double loss = 0.0;
  with_rank(s.rank, [&](auto R) {
    for_valid(d, origin, ext,
              [&](std::size_t i, std::size_t a, std::size_t b, std::size_t c) {
                loss += std::abs(static_cast<double>(o[i]) -
                                 static_cast<double>(
                                     lorenzo::predict<R>(o, d, a, b, c)));
              });
  });
  return loss;
}

}  // namespace aesz
