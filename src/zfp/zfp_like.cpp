#include "zfp/zfp_like.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "sz/common.hpp"
#include "util/bitstream.hpp"
#include "util/bytestream.hpp"

namespace aesz {
namespace {

constexpr std::uint32_t kMagic = ZFPLike::kStreamMagic;
constexpr int kIntPrec = 32;                  // bit planes per value (float32)

/// zfp's forward lifting step on a 4-vector with stride s. Arithmetic is
/// done in 64 bits and stored back into 32-bit lanes; the transform is
/// range-expanding by < 2x, so 30-bit inputs stay representable.
void fwd_lift(std::int32_t* p, std::size_t s) {
  std::int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0] = static_cast<std::int32_t>(x);
  p[s] = static_cast<std::int32_t>(y);
  p[2 * s] = static_cast<std::int32_t>(z);
  p[3 * s] = static_cast<std::int32_t>(w);
}

/// Exact inverse of fwd_lift.
void inv_lift(std::int32_t* p, std::size_t s) {
  std::int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  y += w >> 1; w -= y >> 1;
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0] = static_cast<std::int32_t>(x);
  p[s] = static_cast<std::int32_t>(y);
  p[2 * s] = static_cast<std::int32_t>(z);
  p[3 * s] = static_cast<std::int32_t>(w);
}

/// Sequency-order permutation for a 4^rank block: coefficients sorted by
/// total degree i+j+k (low frequencies first), deterministic tie-break.
/// perm[slot] = source index within the block.
std::vector<std::uint16_t> sequency_perm(int rank) {
  const std::size_t n = rank == 1 ? 4 : rank == 2 ? 16 : 64;
  std::vector<std::uint16_t> perm(n);
  for (std::size_t t = 0; t < n; ++t) perm[t] = static_cast<std::uint16_t>(t);
  auto key = [rank](std::uint16_t t) {
    const int i = t & 3;
    const int j = rank >= 2 ? (t >> 2) & 3 : 0;
    const int k = rank >= 3 ? (t >> 4) & 3 : 0;
    return std::array<int, 3>{i + j + k, i * i + j * j + k * k, t};
  };
  std::sort(perm.begin(), perm.end(),
            [&](std::uint16_t a, std::uint16_t b) { return key(a) < key(b); });
  return perm;
}

std::uint32_t to_negabinary(std::int32_t v) {
  constexpr std::uint32_t mask = 0xAAAAAAAAu;
  return (static_cast<std::uint32_t>(v) + mask) ^ mask;
}

std::int32_t from_negabinary(std::uint32_t u) {
  constexpr std::uint32_t mask = 0xAAAAAAAAu;
  return static_cast<std::int32_t>((u ^ mask) - mask);
}

// BitWriter::put_bits / BitReader::get_bits handle the full 64-bit range
// in one call, so no chunked helpers are needed here anymore.

struct BlockGeom {
  int rank;
  std::size_t nvals;  // 4^rank
  std::size_t nb[3];  // blocks per axis
};

BlockGeom geom(const Dims& d) {
  BlockGeom g{};
  g.rank = d.rank;
  g.nvals = d.rank == 1 ? 4u : d.rank == 2 ? 16u : 64u;
  for (int i = 0; i < 3; ++i)
    g.nb[i] = i < d.rank ? num_blocks(d[i], 4) : 1;
  return g;
}

/// Gather one 4^rank block with edge replication for partial blocks.
void gather(const Field& f, const BlockGeom& g, std::size_t B0,
            std::size_t B1, std::size_t B2, float* blk) {
  const Dims& d = f.dims();
  for (std::size_t a = 0; a < 4; ++a) {
    const std::size_t i = std::min(B0 * 4 + a, d[0] - 1);
    if (g.rank == 1) {
      blk[a] = f.at(i);
      continue;
    }
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t j = std::min(B1 * 4 + b, d[1] - 1);
      if (g.rank == 2) {
        blk[b * 4 + a] = f.at2(i, j);
        continue;
      }
      for (std::size_t c = 0; c < 4; ++c) {
        const std::size_t k = std::min(B2 * 4 + c, d[2] - 1);
        // Block-local layout: t = a + 4*b + 16*c with `a` the fastest axis.
        blk[c * 16 + b * 4 + a] = f.at3(i, j, k);
      }
    }
  }
}

/// Scatter a decoded block back, skipping padded lanes.
void scatter(Field& f, const BlockGeom& g, std::size_t B0, std::size_t B1,
             std::size_t B2, const float* blk) {
  const Dims& d = f.dims();
  for (std::size_t a = 0; a < 4; ++a) {
    const std::size_t i = B0 * 4 + a;
    if (i >= d[0]) break;
    if (g.rank == 1) {
      f.at(i) = blk[a];
      continue;
    }
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t j = B1 * 4 + b;
      if (j >= d[1]) break;
      if (g.rank == 2) {
        f.at2(i, j) = blk[b * 4 + a];
        continue;
      }
      for (std::size_t c = 0; c < 4; ++c) {
        const std::size_t k = B2 * 4 + c;
        if (k >= d[2]) break;
        f.at3(i, j, k) = blk[c * 16 + b * 4 + a];
      }
    }
  }
}

/// Forward transform: lift along each axis. Block layout puts axis-0 of the
/// *field's innermost loop* at stride 1; the order only needs to mirror the
/// inverse.
void fwd_xform(std::int32_t* q, int rank) {
  if (rank == 1) {
    fwd_lift(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(q + 4 * y, 1);
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(q + x, 4);
    return;
  }
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) fwd_lift(q + 16 * z + 4 * y, 1);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(q + 16 * z + x, 4);
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) fwd_lift(q + 4 * y + x, 16);
}

void inv_xform(std::int32_t* q, int rank) {
  if (rank == 1) {
    inv_lift(q, 1);
    return;
  }
  if (rank == 2) {
    for (std::size_t x = 0; x < 4; ++x) inv_lift(q + x, 4);
    for (std::size_t y = 0; y < 4; ++y) inv_lift(q + 4 * y, 1);
    return;
  }
  for (std::size_t y = 0; y < 4; ++y)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(q + 4 * y + x, 16);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t x = 0; x < 4; ++x) inv_lift(q + 16 * z + x, 4);
  for (std::size_t z = 0; z < 4; ++z)
    for (std::size_t y = 0; y < 4; ++y) inv_lift(q + 16 * z + 4 * y, 1);
}

int exponent_of(float maxabs) {
  int e = 0;
  std::frexp(maxabs, &e);
  return e;  // maxabs in [2^(e-1), 2^e)
}

/// Per-block precision in fixed-accuracy mode (zfp's heuristic: enough
/// planes that the dropped tail is below the tolerance even after the
/// transform's error amplification of 2 per dimension pass).
int block_maxprec(int emax, int minexp, int rank) {
  return std::clamp(emax - minexp + 2 * (rank + 1), 0, kIntPrec);
}

/// Encode one block's bit planes with zfp's group-testing scheme.
/// `budget` counts remaining writable bits for fixed-rate mode (huge value
/// for fixed accuracy). Returns bits consumed.
void encode_planes(BitWriter& w, const std::uint32_t* u, std::size_t size,
                   int kmin, std::size_t& budget) {
  std::size_t n = 0;
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    // Extract plane k: bit i of x = plane bit of value i.
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < size; ++i)
      x |= static_cast<std::uint64_t>((u[i] >> k) & 1u) << i;
    // Verbatim bits for the already-scanned prefix.
    const std::size_t m = std::min(n, budget);
    budget -= m;
    w.put_bits(x, static_cast<int>(m));
    x = m >= 64 ? 0 : x >> m;  // m can hit 64 on full 3-D blocks
    if (m < n) return;  // budget exhausted mid-prefix
    // Group-test + unary run-length for the remainder.
    while (n < size && budget > 0) {
      --budget;
      const bool any = x != 0;
      w.put_bit(any);
      if (!any) break;
      while (n < size - 1 && budget > 0) {
        --budget;
        const bool bit = (x & 1u) != 0;
        w.put_bit(bit);
        x >>= 1;
        ++n;
        if (bit) goto next_group;
      }
      if (n == size - 1 && budget > 0) {
        // Last position: its 1 is implied by the group test.
        x >>= 1;
        ++n;
      }
    next_group:;
      if (budget == 0) return;
    }
    if (budget == 0) return;
  }
}

void decode_planes(BitReader& r, std::uint32_t* u, std::size_t size, int kmin,
                   std::size_t& budget) {
  std::size_t n = 0;
  std::fill(u, u + size, 0u);
  for (int k = kIntPrec - 1; k >= kmin; --k) {
    const std::size_t m = std::min(n, budget);
    budget -= m;
    std::uint64_t x = r.get_bits(static_cast<int>(m));
    if (m < n) {
      for (std::size_t i = 0; x; ++i, x >>= 1)
        u[i] |= static_cast<std::uint32_t>(x & 1u) << k;
      return;
    }
    while (n < size && budget > 0) {
      --budget;
      if (!r.get_bit()) break;
      while (n < size - 1 && budget > 0) {
        --budget;
        if (r.get_bit()) break;
        ++n;
      }
      // Either we read the significant 1 at position n, or we ran out of
      // budget, or n == size-1 (implied 1).
      if (budget == 0 && n < size - 1) break;
      x |= std::uint64_t{1} << n;
      ++n;
    }
    for (std::size_t i = 0; x; ++i, x >>= 1)
      u[i] |= static_cast<std::uint32_t>(x & 1u) << k;
    if (budget == 0) return;
  }
}

}  // namespace

std::vector<std::uint8_t> ZFPLike::compress(const Field& f,
                                            const ErrorBound& eb) {
  // The block transform has no exception stream: a NaN or Inf would
  // corrupt every value sharing its block, so refuse it up front.
  const float* v = f.data();
  for (std::size_t i = 0; i < f.size(); ++i)
    if (!std::isfinite(v[i]))
      throw Error(ErrCode::kInvalidArgument,
                  "ZFP cannot code non-finite input: element " +
                      std::to_string(i) + " is " + std::to_string(v[i]));
  const Dims& d = f.dims();
  const bool fixed_rate = opt_.rate_bits_per_value > 0.0;
  const double tol =
      fixed_rate ? 0.0 : sz::resolve_abs_eb(f, eb, "ZFP fixed-accuracy");

  int minexp = 0;
  if (!fixed_rate) {
    // floor(log2(tol)): tol = m * 2^e with m in [0.5, 1) -> floor = e - 1.
    int e = 0;
    std::frexp(tol, &e);
    minexp = e - 1;
  }

  const BlockGeom g = geom(d);
  ByteWriter header;
  sz::write_header(header, kMagic, d, eb, tol);
  header.put(static_cast<std::uint8_t>(fixed_rate ? 1 : 0));
  header.put(static_cast<std::int32_t>(minexp));
  const std::size_t rate_budget =
      fixed_rate ? static_cast<std::size_t>(opt_.rate_bits_per_value *
                                            static_cast<double>(g.nvals))
                 : 0;
  // A block spends 1 (nonzero flag) + 10 (emax) bits before any plane bit.
  AESZ_CHECK_ARG(!fixed_rate || rate_budget >= 11,
                 "fixed rate too low (< 11 bits per block)");
  header.put_varint(rate_budget);

  const auto perm = sequency_perm(g.rank);
  BitWriter bits;
  float blk[64];
  std::int32_t q[64];
  std::uint32_t u[64];

  for (std::size_t B0 = 0; B0 < g.nb[0]; ++B0) {
    for (std::size_t B1 = 0; B1 < g.nb[1]; ++B1) {
      for (std::size_t B2 = 0; B2 < g.nb[2]; ++B2) {
        gather(f, g, B0, B1, B2, blk);
        float maxabs = 0.0f;
        for (std::size_t i = 0; i < g.nvals; ++i)
          maxabs = std::max(maxabs, std::abs(blk[i]));
        const std::size_t block_start = bits.bit_count();
        std::size_t budget =
            fixed_rate ? rate_budget : std::size_t{1} << 60;
        const int emax = exponent_of(maxabs);
        const int maxprec = fixed_rate
                                ? kIntPrec
                                : block_maxprec(emax, minexp, g.rank);
        if (maxabs == 0.0f || maxprec == 0) {
          if (budget > 0) {
            bits.put_bit(false);  // empty block
            --budget;
          }
        } else {
          bits.put_bit(true);
          budget -= std::min<std::size_t>(budget, 1);
          bits.put(static_cast<std::uint64_t>(emax + 300), 10);
          budget -= std::min<std::size_t>(budget, 10);
          // Fixed point: |x| < 2^emax => |q| <= 2^30.
          for (std::size_t i = 0; i < g.nvals; ++i)
            q[i] = static_cast<std::int32_t>(
                std::ldexp(static_cast<double>(blk[i]),
                           kIntPrec - 2 - emax));
          fwd_xform(q, g.rank);
          for (std::size_t t = 0; t < g.nvals; ++t)
            u[t] = to_negabinary(q[perm[t]]);
          encode_planes(bits, u, g.nvals, kIntPrec - maxprec, budget);
        }
        if (fixed_rate) {
          // Pad the block to exactly rate_budget bits (random access).
          const std::size_t used = bits.bit_count() - block_start;
          for (std::size_t i = used; i < rate_budget; ++i)
            bits.put_bit(false);
        }
      }
    }
  }

  header.put_blob(bits.finish());
  return sz::seal_stream(header.take());
}

Field ZFPLike::decompress_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const sz::StreamHeader h = sz::read_header_or_throw(r, kMagic);
  const Dims d = h.dims;
  const bool fixed_rate = r.get<std::uint8_t>() != 0;
  const int minexp = r.get<std::int32_t>();
  const std::size_t rate_budget = r.get_varint();
  // A block never legitimately spends more than flag + emax + all 32 planes
  // verbatim; a larger budget is corruption and would stall the pad-skip
  // loop below for ~2^64 iterations.
  AESZ_CHECK_STREAM(!fixed_rate || (rate_budget >= 11 &&
                                    rate_budget <= (kIntPrec + 2) * 64 + 11),
                    "bad fixed-rate budget");
  const auto payload = r.get_blob();
  BitReader bits(payload);

  const BlockGeom g = geom(d);
  const auto perm = sequency_perm(g.rank);
  Field out(d);
  float blk[64];
  std::int32_t q[64];
  std::uint32_t u[64];

  for (std::size_t B0 = 0; B0 < g.nb[0]; ++B0) {
    for (std::size_t B1 = 0; B1 < g.nb[1]; ++B1) {
      for (std::size_t B2 = 0; B2 < g.nb[2]; ++B2) {
        const std::size_t block_start = bits.bit_pos();
        std::size_t budget =
            fixed_rate ? rate_budget : std::size_t{1} << 60;
        bool nonzero = false;
        if (budget > 0) {
          nonzero = bits.get_bit() != 0;
          --budget;
        }
        if (!nonzero) {
          std::fill(blk, blk + g.nvals, 0.0f);
        } else {
          const int emax = static_cast<int>(bits.get(10)) - 300;
          budget -= std::min<std::size_t>(budget, 10);
          const int maxprec = fixed_rate
                                  ? kIntPrec
                                  : block_maxprec(emax, minexp, g.rank);
          decode_planes(bits, u, g.nvals, kIntPrec - maxprec, budget);
          for (std::size_t t = 0; t < g.nvals; ++t)
            q[perm[t]] = from_negabinary(u[t]);
          inv_xform(q, g.rank);
          for (std::size_t i = 0; i < g.nvals; ++i)
            blk[i] = static_cast<float>(std::ldexp(
                static_cast<double>(q[i]), emax + 2 - kIntPrec));
        }
        if (fixed_rate) {
          // Skip padding to the fixed block boundary.
          while (bits.bit_pos() - block_start < rate_budget) bits.get_bit();
        }
        scatter(out, g, B0, B1, B2, blk);
      }
    }
  }
  // Fixed-accuracy streams are written in full; any zero-filled read past
  // the payload means the bit stream was truncated mid-block. (Fixed-rate
  // keeps the zero-fill tolerance: prefixes of a fixed-rate stream decode
  // to progressively coarser fields by design.)
  AESZ_CHECK_STREAM(fixed_rate || !bits.overran(),
                    "bit stream truncated mid-block");
  return out;
}

}  // namespace aesz
