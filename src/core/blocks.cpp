#include "core/blocks.hpp"

#include <algorithm>
#include <cmath>

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

namespace {

template <typename Fn>
void for_valid(const BlockSplit& s, const std::size_t off[3],
               const std::size_t ext[3], const Dims& d, Fn&& fn) {
  for (std::size_t a = 0; a < ext[0]; ++a) {
    for (std::size_t b = 0; b < ext[1]; ++b) {
      for (std::size_t c = 0; c < ext[2]; ++c) {
        const std::size_t fidx =
            s.rank == 1   ? off[0] + a
            : s.rank == 2 ? lin2(d, off[0] + a, off[1] + b)
                          : lin3(d, off[0] + a, off[1] + b, off[2] + c);
        const std::size_t bidx =
            s.rank == 1 ? a : s.rank == 2 ? a * s.bs + b
                                          : (a * s.bs + b) * s.bs + c;
        fn(fidx, bidx);
      }
    }
  }
}

}  // namespace

void insert_block(const float* in, const BlockSplit& s, std::size_t bid,
                  const Normalizer& nrm, Field& out) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  for_valid(s, off, ext, out.dims(), [&](std::size_t fi, std::size_t bi) {
    out.at(fi) = nrm.denorm(in[bi]);
  });
}

double block_l1_vs(const Field& f, const BlockSplit& s, std::size_t bid,
                   const Field& pred) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  double loss = 0.0;
  for_valid(s, off, ext, f.dims(), [&](std::size_t fi, std::size_t) {
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
  for_valid(s, off, ext, f.dims(), [&](std::size_t fi, std::size_t) {
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
  for_valid(s, off, ext, f.dims(), [&](std::size_t fi, std::size_t) {
    loss += std::abs(static_cast<double>(f.at(fi)) - c);
  });
  return loss;
}

double block_l1_lorenzo(const Field& f, const BlockSplit& s,
                        std::size_t bid) {
  std::size_t off[3], ext[3];
  block_region(s, bid, off, ext);
  // Copy the valid region into a contiguous (tightly strided) buffer and
  // reuse the original-data block loss from the predictor library.
  std::vector<float> buf(ext[0] * ext[1] * ext[2]);
  std::size_t t = 0;
  const Dims& d = f.dims();
  for (std::size_t a = 0; a < ext[0]; ++a)
    for (std::size_t b = 0; b < ext[1]; ++b)
      for (std::size_t c = 0; c < ext[2]; ++c) {
        const std::size_t fidx =
            s.rank == 1   ? off[0] + a
            : s.rank == 2 ? lin2(d, off[0] + a, off[1] + b)
                          : lin3(d, off[0] + a, off[1] + b, off[2] + c);
        buf[t++] = f.at(fidx);
      }
  if (s.rank == 1) return lorenzo::block_l1_loss_2d(buf, 1, ext[0]);
  if (s.rank == 2) return lorenzo::block_l1_loss_2d(buf, ext[0], ext[1]);
  return lorenzo::block_l1_loss_3d(buf, ext[0], ext[1], ext[2]);
}

}  // namespace aesz
