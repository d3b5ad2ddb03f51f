#include "core/blocks.hpp"

#include <algorithm>
#include <cmath>

namespace aesz {

void extract_block(const Field& f, const BlockSplit& s, std::size_t bid,
                   const Normalizer& nrm, float* out) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  const Dims& d = f.dims();
  for (std::size_t a = 0; a < s.bs; ++a) {
    const std::size_t i = off[0] + std::min(a, ext[0] - 1);
    if (s.rank == 1) {
      out[a] = nrm.norm(f.at(i));
      continue;
    }
    for (std::size_t b = 0; b < s.bs; ++b) {
      const std::size_t j = off[1] + std::min(b, ext[1] - 1);
      if (s.rank == 2) {
        out[a * s.bs + b] = nrm.norm(f.at(lin2(d, i, j)));
        continue;
      }
      for (std::size_t c = 0; c < s.bs; ++c) {
        const std::size_t k = off[2] + std::min(c, ext[2] - 1);
        out[(a * s.bs + b) * s.bs + c] = nrm.norm(f.at(lin3(d, i, j, k)));
      }
    }
  }
}

void insert_block(const float* in, const BlockSplit& s, std::size_t bid,
                  const Normalizer& nrm, Field& out) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  // Block-local raster index of (a, b, c) in the bs^rank block.
  const std::size_t s1 = s.rank >= 2 ? s.bs : 1, s2 = s.rank >= 3 ? s.bs : 1;
  for_valid(out.dims(), off, ext,
            [&](std::size_t fi, std::size_t a, std::size_t b, std::size_t c) {
              out.at(fi) = nrm.denorm(in[(a * s1 + b) * s2 + c]);
            });
}

double block_l1_vs(const Field& f, const BlockSplit& s, std::size_t bid,
                   const Field& pred) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  double loss = 0.0;
  for_valid(f.dims(), off, ext, [&](std::size_t fi, auto...) {
    loss += std::abs(static_cast<double>(f.at(fi)) -
                     static_cast<double>(pred.at(fi)));
  });
  return loss;
}

float block_mean(const Field& f, const BlockSplit& s, std::size_t bid) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  double sum = 0.0;
  std::size_t n = 0;
  for_valid(f.dims(), off, ext, [&](std::size_t fi, auto...) {
    sum += f.at(fi);
    ++n;
  });
  return static_cast<float>(sum / static_cast<double>(n));
}

double block_l1_const(const Field& f, const BlockSplit& s, std::size_t bid,
                      float c) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  double loss = 0.0;
  for_valid(f.dims(), off, ext, [&](std::size_t fi, auto...) {
    loss += std::abs(static_cast<double>(f.at(fi)) - c);
  });
  return loss;
}

}  // namespace aesz
