#include "lossless/huffman.hpp"

#include <algorithm>
#include <queue>

#include <cstring>

#include "util/bitstream.hpp"
#include "util/bytestream.hpp"
#include "util/error.hpp"
#include "util/stage_timer.hpp"

namespace aesz::huffman {
namespace {

constexpr int kMaxLen = 57;  // on-disk code-length cap (fits one put_bits)

// Table-driven decode: a direct-mapped table over the next kPrimaryBits
// stream bits resolves every code of length <= kPrimaryBits in one lookup;
// longer (rare) codes fall back to the per-length canonical walk. 2^11
// entries x 4 bytes = 8 KiB — resident in L1 for the whole decode loop.
constexpr int kPrimaryBits = 11;

struct Node {
  std::uint64_t freq;
  int left;   // -1 for leaf
  int right;
  std::uint16_t sym;
};

/// Compute Huffman code lengths by the classic two-queue construction.
/// Returns max depth; lengths[i] == 0 for absent symbols.
int build_lengths(std::span<const std::uint64_t> freq,
                  std::vector<std::uint8_t>& lengths) {
  const std::size_t n = freq.size();
  lengths.assign(n, 0);

  std::vector<Node> nodes;
  nodes.reserve(2 * n);
  using QE = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  for (std::size_t s = 0; s < n; ++s) {
    if (freq[s] == 0) continue;
    nodes.push_back({freq[s], -1, -1, static_cast<std::uint16_t>(s)});
    pq.emplace(freq[s], static_cast<int>(nodes.size()) - 1);
  }
  if (nodes.empty()) return 0;
  if (nodes.size() == 1) {  // single distinct symbol: 1-bit code
    lengths[nodes[0].sym] = 1;
    return 1;
  }
  while (pq.size() > 1) {
    auto [fa, a] = pq.top();
    pq.pop();
    auto [fb, b] = pq.top();
    pq.pop();
    nodes.push_back({fa + fb, a, b, 0});
    pq.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  // Depth-assign iteratively (explicit stack: trees can be deep).
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{pq.top().second, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[static_cast<std::size_t>(idx)];
    if (nd.left < 0) {
      lengths[nd.sym] = static_cast<std::uint8_t>(depth);
      max_depth = std::max(max_depth, depth);
    } else {
      stack.emplace_back(nd.left, depth + 1);
      stack.emplace_back(nd.right, depth + 1);
    }
  }
  return max_depth;
}

/// Reverse the low `n` bits of `v` (canonical codes compare MSB-first, the
/// bitstream packs LSB-first — emission and table indexing both need the
/// stream-order value).
std::uint64_t bit_reverse(std::uint64_t v, int n) {
  std::uint64_t r = 0;
  for (int i = 0; i < n; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

struct Canonical {
  // Canonical code assignment: symbols sorted by (length, value) get
  // consecutive codes; decode needs only per-length ranges.
  std::vector<std::uint8_t> lengths;
  std::vector<std::uint64_t> codes;          // MSB-first code value per symbol
  std::vector<std::uint16_t> sorted_syms;    // symbols ordered by (len, sym)
  std::vector<std::uint64_t> first_code;     // per length
  std::vector<std::size_t> first_index;      // per length, into sorted_syms
  std::vector<std::size_t> count;            // per length
  // Primary decode table (build_lut): entry = sym | (len << 16) for codes
  // of length <= kPrimaryBits, 0 = "not resolvable here" (long code, or a
  // bit pattern outside an incomplete code's space).
  std::vector<std::uint32_t> lut;
  int max_len = 0;
};

Canonical canonicalize(std::vector<std::uint8_t> lengths) {
  Canonical c;
  c.lengths = std::move(lengths);
  const std::size_t n = c.lengths.size();
  c.max_len = 0;
  for (auto l : c.lengths) c.max_len = std::max<int>(c.max_len, l);
  c.count.assign(static_cast<std::size_t>(c.max_len) + 1, 0);
  for (auto l : c.lengths)
    if (l) ++c.count[l];
  c.first_code.assign(static_cast<std::size_t>(c.max_len) + 1, 0);
  c.first_index.assign(static_cast<std::size_t>(c.max_len) + 1, 0);
  std::uint64_t code = 0;
  std::size_t index = 0;
  for (int l = 1; l <= c.max_len; ++l) {
    code <<= 1;
    c.first_code[static_cast<std::size_t>(l)] = code;
    c.first_index[static_cast<std::size_t>(l)] = index;
    code += c.count[static_cast<std::size_t>(l)];
    index += c.count[static_cast<std::size_t>(l)];
    // Kraft bound: an over-subscribed length table would assign codes
    // >= 2^l, making the code set non-prefix-free and the LUT build index
    // out of range. Encode-side tables (true Huffman trees) always pass.
    AESZ_CHECK_STREAM(code <= (1ULL << l),
                      "huffman code lengths oversubscribed");
  }
  c.sorted_syms.resize(index);
  std::vector<std::size_t> next = c.first_index;
  c.codes.assign(n, 0);
  std::vector<std::uint64_t> next_code = c.first_code;
  for (std::size_t s = 0; s < n; ++s) {
    const int l = c.lengths[s];
    if (!l) continue;
    c.sorted_syms[next[static_cast<std::size_t>(l)]++] =
        static_cast<std::uint16_t>(s);
    c.codes[s] = next_code[static_cast<std::size_t>(l)]++;
  }
  return c;
}

/// Fill the primary decode table: for a symbol with stream-order code bits
/// rc (length l <= kPrimaryBits), every index whose low l bits equal rc
/// resolves to it in one lookup. Codes are validated < 2^l by canonicalize,
/// so rc < 2^l and the strided fill stays in bounds.
void build_lut(Canonical& c) {
  c.lut.assign(std::size_t{1} << kPrimaryBits, 0);
  for (std::size_t s = 0; s < c.lengths.size(); ++s) {
    const int l = c.lengths[s];
    if (!l || l > kPrimaryBits) continue;
    const std::uint64_t rc = bit_reverse(c.codes[s], l);
    const std::uint32_t entry = static_cast<std::uint32_t>(s & 0xFFFF) |
                                (static_cast<std::uint32_t>(l) << 16);
    for (std::size_t idx = rc; idx < c.lut.size(); idx += std::size_t{1} << l)
      c.lut[idx] = entry;
  }
}

/// Serialize the lengths of `c`, whose entry i is symbol `base + i`. The
/// stream counts from symbol 0 regardless: its table size is the largest
/// symbol + 1 and its first delta is from 0.
void write_table(ByteWriter& w, const Canonical& c, std::size_t base) {
  // Sparse (delta symbol, length) pairs.
  std::uint64_t nz = 0;
  for (auto l : c.lengths)
    if (l) ++nz;
  w.put_varint(base + c.lengths.size());
  w.put_varint(nz);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < c.lengths.size(); ++i) {
    if (!c.lengths[i]) continue;
    const std::uint64_t sym = base + i;
    w.put_varint(sym - prev);
    w.put(static_cast<std::uint8_t>(c.lengths[i]));
    prev = sym;
  }
}

Canonical read_table(ByteReader& r) {
  const std::uint64_t n = r.get_varint();
  const std::uint64_t nz = r.get_varint();
  AESZ_CHECK_MSG(n <= (1u << 17) && nz <= n, "bad huffman table");
  std::vector<std::uint8_t> lengths(n, 0);
  std::uint64_t sym = 0;
  for (std::uint64_t i = 0; i < nz; ++i) {
    sym += r.get_varint();
    AESZ_CHECK_MSG(sym < n, "huffman symbol out of range");
    const auto l = r.get<std::uint8_t>();
    AESZ_CHECK_MSG(l >= 1 && l <= kMaxLen, "bad huffman code length");
    lengths[sym] = l;
  }
  return canonicalize(std::move(lengths));
}

/// Canonical per-length walk, one bit at a time. The decode slow path for
/// codes longer than the primary table, and the reference decoder body.
std::uint16_t decode_one_slow(BitReader& bits, const Canonical& c) {
  std::uint64_t code = 0;
  int l = 0;
  while (true) {
    code = (code << 1) | static_cast<std::uint64_t>(bits.get_bit());
    ++l;
    AESZ_CHECK_MSG(l <= c.max_len, "corrupt huffman payload");
    const auto ul = static_cast<std::size_t>(l);
    if (c.count[ul] &&
        code < c.first_code[ul] + c.count[ul] && code >= c.first_code[ul]) {
      return c.sorted_syms[c.first_index[ul] + (code - c.first_code[ul])];
    }
  }
}

}  // namespace

std::vector<std::uint8_t> code_lengths(std::span<const std::uint64_t> freq) {
  std::vector<std::uint8_t> lengths;
  int depth = build_lengths(freq, lengths);
  if (depth <= kMaxLen) return lengths;
  // Depth-limit by frequency flattening: rare with 16-bit bins, but a
  // pathological geometric distribution can exceed the on-disk length cap.
  std::vector<std::uint64_t> f(freq.begin(), freq.end());
  int shift = 1;
  while (depth > kMaxLen) {
    for (auto& v : f)
      if (v) v = 1 + (v >> shift);
    depth = build_lengths(f, lengths);
    ++shift;
  }
  return lengths;
}

std::vector<std::uint8_t> encode(std::span<const std::uint16_t> symbols) {
  prof::StageScope scope(prof::Stage::kEntropy);
  // Count over [lo, hi], the symbols actually used: SZ quantization codes
  // cluster near 32768, so tables indexed from symbol 0 would be mostly
  // empty. Tree, codes and table bytes do not depend on the offset.
  std::uint16_t lo = 0;
  std::uint16_t hi = 0;
  if (!symbols.empty()) {
    const auto [mn, mx] = std::minmax_element(symbols.begin(), symbols.end());
    lo = *mn;
    hi = *mx;
  }
  std::vector<std::uint64_t> freq(std::size_t{hi} - lo + 1, 0);
  for (auto s : symbols) ++freq[s - lo];

  const Canonical c = canonicalize(code_lengths(freq));

  // Stream-order emission values: one put_bits per symbol.
  std::vector<std::uint64_t> emit(freq.size());
  std::size_t payload_bits = 0;
  std::size_t nz = 0;
  for (std::size_t i = 0; i < freq.size(); ++i) {
    const int l = c.lengths[i];
    if (!l) continue;
    emit[i] = bit_reverse(c.codes[i], l);
    payload_bits += static_cast<std::size_t>(l) * freq[i];
    ++nz;
  }

  ByteWriter w;
  // Size estimate: varint count + sparse table (<= 3 bytes/entry + header)
  // + blob length prefix + payload.
  w.reserve(16 + 3 * nz + 10 + payload_bits / 8 + 9);
  w.put_varint(symbols.size());
  write_table(w, c, lo);
  BitWriter bits;
  bits.reserve_bits(payload_bits);
  for (auto s : symbols)
    bits.put_bits(emit[s - lo], c.lengths[s - lo]);
  w.put_blob(bits.finish());
  return w.take();
}

std::vector<std::uint16_t> decode(std::span<const std::uint8_t> stream) {
  prof::StageScope scope(prof::Stage::kEntropy);
  ByteReader r(stream);
  const std::uint64_t n = r.get_varint();
  Canonical c = read_table(r);
  build_lut(c);
  const auto payload = r.get_blob();
  // Every symbol costs at least one payload bit; a corrupt count that
  // exceeds that would otherwise decode zero-filled bits for ~2^64
  // iterations (and pre-reserve the memory to match).
  AESZ_CHECK_STREAM(n <= payload.size() * 8,
                    "huffman symbol count exceeds payload");
  // Hot loop over local accumulator state (the BitReader abstraction costs
  // ~2x here). Semantics match the per-bit walk exactly, including zero-fill
  // past the payload end.
  const std::uint8_t* p = payload.data();
  const std::size_t nbytes = payload.size();
  std::size_t bytepos = 0;
  std::uint64_t acc = 0;
  int nbits = 0;
  constexpr std::uint64_t pmask = (1ULL << kPrimaryBits) - 1;

  std::vector<std::uint16_t> out(static_cast<std::size_t>(n));
  std::uint16_t* op = out.data();
  std::uint64_t i = 0;

  // Per-bit walk on the local state for codes the primary table cannot
  // resolve (longer than kPrimaryBits, or an invalid prefix — throws).
  const auto slow_symbol = [&]() {
    std::uint64_t code = 0;
    int cl = 0;
    while (true) {
      int bit = 0;  // zero-fill past end
      if (nbits > 0) {
        bit = static_cast<int>(acc & 1);
        acc >>= 1;
        --nbits;
      } else if (bytepos < nbytes) {
        acc = p[bytepos++];
        nbits = 7;
        bit = static_cast<int>(acc & 1);
        acc >>= 1;
      }
      code = (code << 1) | static_cast<std::uint64_t>(bit);
      ++cl;
      AESZ_CHECK_MSG(cl <= c.max_len, "corrupt huffman payload");
      const auto ul = static_cast<std::size_t>(cl);
      if (c.count[ul] && code >= c.first_code[ul] &&
          code < c.first_code[ul] + c.count[ul]) {
        op[i++] = c.sorted_syms[c.first_index[ul] + (code - c.first_code[ul])];
        return;
      }
    }
  };

  while (i < n) {
    if (bytepos + 8 <= nbytes) {  // branchless word refill
      std::uint64_t w;
      std::memcpy(&w, p + bytepos, 8);
      acc |= w << nbits;
      const int add = (63 - nbits) >> 3;
      bytepos += static_cast<std::size_t>(add);
      nbits += add * 8;
    } else {
      while (nbits <= 56 && bytepos < nbytes) {
        acc |= static_cast<std::uint64_t>(p[bytepos++]) << nbits;
        nbits += 8;
      }
    }
    if (nbits >= kPrimaryBits) {
      // Steady state: one refill feeds several table hits.
      bool slow = false;
      while (i < n && nbits >= kPrimaryBits) {
        const std::uint32_t e = c.lut[acc & pmask];
        if (e == 0) {
          slow = true;
          break;
        }
        const int l = static_cast<int>(e >> 16);
        acc >>= l;
        nbits -= l;
        op[i++] = static_cast<std::uint16_t>(e & 0xFFFF);
      }
      if (slow) slow_symbol();
      continue;
    }
    // Stream tail: fewer than kPrimaryBits real bits left; acc's high bits
    // are zero, matching the per-bit walk's zero-fill past the end.
    const std::uint32_t e = c.lut[acc & pmask];
    if (e != 0) {
      const int l = static_cast<int>(e >> 16);
      if (l <= nbits) {
        acc >>= l;
        nbits -= l;
      } else {
        acc = 0;
        nbits = 0;
      }
      op[i++] = static_cast<std::uint16_t>(e & 0xFFFF);
    } else {
      slow_symbol();
    }
  }
  return out;
}

std::vector<std::uint16_t> decode_reference(
    std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const std::uint64_t n = r.get_varint();
  const Canonical c = read_table(r);
  const auto payload = r.get_blob();
  AESZ_CHECK_STREAM(n <= payload.size() * 8,
                    "huffman symbol count exceeds payload");
  BitReader bits(payload);
  std::vector<std::uint16_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(decode_one_slow(bits, c));
  return out;
}

}  // namespace aesz::huffman
